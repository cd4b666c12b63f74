#include "service/fleet_node.h"

#include <algorithm>
#include <utility>

namespace adprom::service {

namespace {

/// Session-key separator for the internal composite id. An information
/// separator is illegal in both the text and binary wire identifiers, so
/// ("a", "b\x1fc") and ("a\x1fb", "c") can never collide.
constexpr char kKeySep = '\x1f';

/// FNV-1a 64 over the composite key: cheap, stable across runs (the shard
/// a session maps to is part of the test contract), and well-mixed enough
/// that sequential session keys spread evenly.
uint64_t HashKey(const std::string& tenant, const std::string& session_key) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<uint8_t>(c);
      hash *= 1099511628211ULL;
    }
  };
  mix(tenant);
  hash ^= static_cast<uint8_t>(kKeySep);
  hash *= 1099511628211ULL;
  mix(session_key);
  return hash;
}

std::string CompositeKey(const std::string& tenant,
                         const std::string& session_key) {
  std::string key;
  key.reserve(tenant.size() + 1 + session_key.size());
  key.append(tenant);
  key.push_back(kKeySep);
  key.append(session_key);
  return key;
}

}  // namespace

FleetNode::FleetNode(ProfileRegistry* registry, AlertSink* sink,
                     util::ThreadPool* pool, FleetOptions options)
    : registry_(registry), options_(options) {
  options_.num_shards = std::max<size_t>(1, options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(
        std::make_unique<SessionManager>(sink, pool, options_.session));
  }
}

size_t FleetNode::ShardIndex(const std::string& tenant,
                             const std::string& session_key) const {
  return HashKey(tenant, session_key) % shards_.size();
}

TenantCounters* FleetNode::CountersFor(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    auto counters = std::make_unique<TenantCounters>();
    counters->tenant = tenant;
    it = tenants_.emplace(tenant, std::move(counters)).first;
  }
  return it->second.get();
}

util::Status FleetNode::Bind(const std::string& tenant,
                             const std::string& session_key,
                             SessionBinding* binding) {
  // Fail closed: no live profile -> the event is rejected, never scored
  // against some other tenant's model. Sessions created before a Remove
  // keep their pinned handle but stop receiving events, exactly like an
  // unknown tenant.
  binding->profile = registry_->Get(tenant);
  if (binding->profile == nullptr) {
    return util::Status::NotFound("no profile loaded for tenant: " + tenant);
  }
  if (options_.qualify_sink_ids) binding->display_scope = tenant;
  binding->display_key = session_key;
  binding->tenant = CountersFor(tenant);
  return util::Status::Ok();
}

util::Status FleetNode::Submit(const std::string& tenant,
                               const std::string& session_key,
                               runtime::CallEvent event) {
  SessionBinding binding;
  ADPROM_RETURN_IF_ERROR(Bind(tenant, session_key, &binding));
  SessionManager& shard = *shards_[ShardIndex(tenant, session_key)];
  return shard.Submit(CompositeKey(tenant, session_key), binding,
                      std::move(event));
}

util::Status FleetNode::SubmitBatch(
    const std::string& tenant, const std::string& session_key,
    std::span<const runtime::CallEvent> events) {
  SessionBinding binding;
  ADPROM_RETURN_IF_ERROR(Bind(tenant, session_key, &binding));
  SessionManager& shard = *shards_[ShardIndex(tenant, session_key)];
  return shard.SubmitBatch(CompositeKey(tenant, session_key), binding,
                           events);
}

util::Status FleetNode::CloseSession(const std::string& tenant,
                                     const std::string& session_key) {
  SessionManager& shard = *shards_[ShardIndex(tenant, session_key)];
  return shard.CloseSession(CompositeKey(tenant, session_key));
}

void FleetNode::CloseAll() {
  for (const auto& shard : shards_) shard->CloseAll();
}

void FleetNode::Drain() {
  for (const auto& shard : shards_) shard->Drain();
}

FleetMetrics FleetNode::Metrics() const {
  FleetMetrics out;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) out.shards.push_back(shard->Metrics());
  std::lock_guard<std::mutex> lock(tenants_mu_);
  out.tenants.reserve(tenants_.size());
  for (const auto& [tenant, counters] : tenants_) {
    TenantMetrics snapshot;
    snapshot.tenant = tenant;
    snapshot.generation = registry_->Generation(tenant);
    snapshot.submitted = counters->submitted.load(std::memory_order_relaxed);
    snapshot.dropped = counters->dropped.load(std::memory_order_relaxed);
    snapshot.scored = counters->scored.load(std::memory_order_relaxed);
    snapshot.verdicts = counters->verdicts.load(std::memory_order_relaxed);
    snapshot.alarms = counters->alarms.load(std::memory_order_relaxed);
    snapshot.sessions_opened =
        counters->sessions_opened.load(std::memory_order_relaxed);
    snapshot.sessions_closed =
        counters->sessions_closed.load(std::memory_order_relaxed);
    out.tenants.push_back(std::move(snapshot));
  }
  return out;
}

size_t FleetNode::num_sessions() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_sessions();
  return total;
}

size_t FleetNode::total_dropped() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->total_dropped();
  return total;
}

}  // namespace adprom::service
