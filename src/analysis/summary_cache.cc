#include "analysis/summary_cache.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace adprom::analysis {

namespace {

/// File magic: "ADPROMAC" as raw bytes, ahead of the version word.
constexpr char kMagic[8] = {'A', 'D', 'P', 'R', 'O', 'M', 'A', 'C'};

void EncodeSite(const Site& site, BinaryWriter* w) {
  w->Str(site.function);
  w->I32(site.block_id);
  w->Str(site.callee);
  w->B(site.is_user_fn);
  w->I32(site.call_site_id);
  w->B(site.labeled);
  w->Str(site.observable);
  w->F64(site.reachability);
  Put(*w, site.source_tables);
  Put(*w, site.source_columns);
}

Site DecodeSite(BinaryReader* r) {
  Site site;
  site.function = r->Str();
  site.block_id = r->I32();
  site.callee = r->Str();
  site.is_user_fn = r->B();
  site.call_site_id = r->I32();
  site.labeled = r->B();
  site.observable = r->Str();
  site.reachability = r->F64();
  site.source_tables = Get<std::vector<std::string>>(*r);
  site.source_columns = Get<std::vector<std::string>>(*r);
  return site;
}

void EncodeStore(const SummaryStore& store, BinaryWriter* w) {
  w->U64(store.entries().size());
  for (const auto& [id, entry] : store.entries()) {
    w->U64(id.first);
    w->Str(id.second);
    w->U64(entry.key);
    w->Str(entry.payload);
  }
}

void DecodeStore(BinaryReader* r, SummaryStore* store) {
  const uint64_t n = r->U64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    const uint64_t fp = r->U64();
    std::string name = r->Str();
    SummaryStore::Entry entry;
    entry.key = r->U64();
    entry.payload = r->Str();
    store->mutable_entries().emplace(
        std::make_pair(fp, std::move(name)), std::move(entry));
  }
}

}  // namespace

void EncodeCtm(const Ctm& ctm, BinaryWriter* w) {
  w->Str(ctm.function());
  const size_t n = ctm.num_sites();
  w->U64(n);
  for (size_t i = 0; i < n; ++i) EncodeSite(ctm.site(i), w);
  w->F64(ctm.entry_to_exit());
  for (size_t i = 0; i < n; ++i) {
    w->F64(ctm.entry_to(i));
    w->F64(ctm.to_exit(i));
    for (size_t j = 0; j < n; ++j) w->F64(ctm.between(i, j));
  }
}

Ctm DecodeCtm(BinaryReader* r) {
  Ctm ctm(r->Str());
  const uint64_t n = r->U64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) ctm.AddSite(DecodeSite(r));
  if (!r->ok() || ctm.num_sites() != n) return ctm;
  ctm.set_entry_to_exit(r->F64());
  for (size_t i = 0; i < n; ++i) {
    ctm.set_entry_to(i, r->F64());
    ctm.set_to_exit(i, r->F64());
    for (size_t j = 0; j < n; ++j) ctm.set_between(i, j, r->F64());
  }
  return ctm;
}

bool SummaryStore::Lookup(uint64_t config_fp, const std::string& name,
                          uint64_t key, std::string* payload,
                          PassCacheStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(std::make_pair(config_fp, name));
  if (it != entries_.end() && it->second.key == key) {
    if (stats != nullptr) ++stats->hits;
    *payload = it->second.payload;
    return true;
  }
  if (stats != nullptr) {
    ++stats->misses;
    if (it != entries_.end()) ++stats->invalidated;
  }
  return false;
}

void SummaryStore::Count(PassCacheStats* stats, size_t hits, size_t misses,
                         size_t invalidated) {
  if (stats == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  stats->hits += hits;
  stats->misses += misses;
  stats->invalidated += invalidated;
}

void SummaryStore::Store(uint64_t config_fp, const std::string& name,
                         uint64_t key, std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[std::make_pair(config_fp, name)] = Entry{key, std::move(payload)};
}

size_t SummaryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void SummaryStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

void AnalysisCache::Clear() {
  taint.Clear();
  absint.Clear();
  forecast.Clear();
  aggregation.entries().clear();
}

size_t AnalysisCache::TotalEntries() const {
  return taint.size() + absint.size() + forecast.size() +
         aggregation.entries().size();
}

util::Status SaveAnalysisCache(const AnalysisCache& cache,
                               const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create cache directory " + dir +
                                  ": " + ec.message());
  }
  BinaryWriter w;
  w.Raw(kMagic, sizeof(kMagic));
  w.U32(kAnalysisCacheVersion);
  EncodeStore(cache.taint, &w);
  EncodeStore(cache.absint, &w);
  EncodeStore(cache.forecast, &w);
  w.U64(cache.aggregation.entries().size());
  for (const auto& [fn, entry] : cache.aggregation.entries()) {
    w.Str(fn);
    w.U64(entry.key);
    EncodeCtm(entry.aggregated, &w);
  }

  const std::string path = dir + "/" + kAnalysisCacheFile;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::Internal("cannot open cache file for writing: " +
                                  path);
  }
  out.write(w.buffer().data(),
            static_cast<std::streamsize>(w.buffer().size()));
  out.flush();
  if (!out) {
    return util::Status::Internal("short write to cache file: " + path);
  }
  return util::Status::Ok();
}

util::Status LoadAnalysisCache(const std::string& dir, AnalysisCache* cache) {
  cache->Clear();
  const std::string path = dir + "/" + kAnalysisCacheFile;
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::Ok();  // No image yet: a cold start.
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string buf = contents.str();

  BinaryReader r(buf);
  char magic[sizeof(kMagic)] = {};
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument("analysis cache " + path +
                                         ": bad magic (not a cache file)");
  }
  const uint32_t version = r.U32();
  if (version != kAnalysisCacheVersion) {
    return util::Status::InvalidArgument(
        "analysis cache " + path + ": version " + std::to_string(version) +
        " does not match expected " +
        std::to_string(kAnalysisCacheVersion) + "; refusing to warm-start");
  }
  DecodeStore(&r, &cache->taint);
  DecodeStore(&r, &cache->absint);
  DecodeStore(&r, &cache->forecast);
  const uint64_t agg_entries = r.U64();
  for (uint64_t i = 0; i < agg_entries && r.ok(); ++i) {
    std::string fn = r.Str();
    AggregationCache::Entry entry;
    entry.key = r.U64();
    entry.aggregated = DecodeCtm(&r);
    cache->aggregation.entries().emplace(std::move(fn), std::move(entry));
  }
  if (!r.ok() || !r.AtEnd()) {
    cache->Clear();
    return util::Status::InvalidArgument(
        "analysis cache " + path +
        ": truncated or trailing bytes; refusing to warm-start");
  }
  return util::Status::Ok();
}

}  // namespace adprom::analysis
