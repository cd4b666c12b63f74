#include "core/profile.h"

#include <cmath>
#include <sstream>

#include "analysis/labeling.h"
#include "util/strings.h"

namespace adprom::core {

Alphabet::Alphabet() {
  symbols_.push_back("<unk>");
  index_["<unk>"] = 0;
}

int Alphabet::Intern(const std::string& symbol) {
  auto it = index_.find(symbol);
  if (it != index_.end()) return it->second;
  const int id = static_cast<int>(symbols_.size());
  symbols_.push_back(symbol);
  index_[symbol] = id;
  return id;
}

int Alphabet::Lookup(std::string_view symbol) const {
  auto it = index_.find(symbol);
  return it == index_.end() ? unk_id() : it->second;
}

bool Alphabet::Contains(std::string_view symbol) const {
  return index_.find(symbol) != index_.end();
}

std::string ApplicationProfile::ObservableOf(
    const runtime::CallEvent& event) const {
  std::string buffer;
  return std::string(ObservableInto(event, &buffer));
}

std::string_view ApplicationProfile::ObservableInto(
    const runtime::CallEvent& event, std::string* buffer) const {
  const bool labeled = options.use_dd_labels && event.td_output;
  const bool signed_query =
      options.use_query_signatures && !event.query_signature.empty();
  if (!labeled && !signed_query) return event.callee;
  buffer->clear();
  if (labeled) {
    analysis::AppendLabeledObservable(event.callee, event.caller,
                                      event.block_id, buffer);
  } else {
    buffer->append(event.callee);
  }
  if (signed_query) {
    buffer->push_back('#');
    buffer->append(event.query_signature);
  }
  return *buffer;
}

hmm::ObservationSeq ApplicationProfile::Encode(
    std::span<const runtime::CallEvent> events) const {
  hmm::ObservationSeq seq;
  seq.reserve(events.size());
  std::string buffer;
  for (const runtime::CallEvent& event : events) {
    seq.push_back(alphabet.Lookup(ObservableInto(event, &buffer)));
  }
  return seq;
}

std::vector<std::span<const runtime::CallEvent>> SlidingWindows(
    const runtime::Trace& trace, size_t n) {
  std::vector<std::span<const runtime::CallEvent>> out;
  if (trace.empty()) return out;
  if (trace.size() <= n) {
    out.emplace_back(trace.data(), trace.size());
    return out;
  }
  out.reserve(trace.size() - n + 1);
  for (size_t i = 0; i + n <= trace.size(); ++i) {
    out.emplace_back(trace.data() + i, n);
  }
  return out;
}

std::string ApplicationProfile::Serialize() const {
  std::ostringstream out;
  out << "adprom-profile v2\n";
  out << "window_length " << options.window_length << "\n";
  out << "use_dd_labels " << (options.use_dd_labels ? 1 : 0) << "\n";
  out << "use_query_signatures " << (options.use_query_signatures ? 1 : 0)
      << "\n";
  out << "threshold " << util::StrFormat("%.17g", threshold) << "\n";
  out << "num_sites " << num_sites << "\n";
  out << "num_states " << num_states << "\n";
  out << "alphabet " << alphabet.size() << "\n";
  for (const std::string& s : alphabet.symbols()) out << s << "\n";
  out << "context_pairs " << context_pairs.size() << "\n";
  for (const auto& [caller, callee] : context_pairs) {
    out << caller << " " << callee << "\n";
  }
  out << "labeled_sources " << labeled_sources.size() << "\n";
  for (const auto& [observable, tables] : labeled_sources) {
    out << observable;
    for (const std::string& t : tables) out << " " << t;
    out << "\n";
  }
  const size_t n = model.num_states();
  const size_t m = model.num_symbols();
  out << "hmm " << n << " " << m << "\n";
  // v2: A row-by-row as `<nnz> <col> <val> ...`. %.17g round-trips every
  // double exactly, so serialize → deserialize reproduces A bit for bit.
  out << "a-sparse\n";
  for (size_t s = 0; s < n; ++s) {
    size_t nnz = 0;
    for (size_t t = 0; t < n; ++t) {
      if (model.a().At(s, t) != 0.0) ++nnz;
    }
    out << nnz;
    for (size_t t = 0; t < n; ++t) {
      const double v = model.a().At(s, t);
      if (v != 0.0) out << util::StrFormat(" %zu %.17g", t, v);
    }
    out << "\n";
  }
  for (size_t s = 0; s < n; ++s) {
    for (size_t o = 0; o < m; ++o) {
      out << util::StrFormat("%.17g%c", model.b().At(s, o),
                             o + 1 == m ? '\n' : ' ');
    }
  }
  for (size_t s = 0; s < n; ++s) {
    out << util::StrFormat("%.17g%c", model.pi()[s],
                           s + 1 == n ? '\n' : ' ');
  }
  return out.str();
}

namespace {

/// Sanity caps for deserialized profiles. Legitimate profiles are tiny
/// (the paper reports ~31 kB); the caps exist so a corrupted or hostile
/// size field fails with a clean ParseError instead of attempting a
/// multi-gigabyte allocation.
constexpr size_t kMaxWindowLength = 1u << 20;
constexpr size_t kMaxCount = 1u << 20;       // alphabet / pairs / sources
constexpr size_t kMaxMatrixCells = 1u << 26;  // per HMM parameter matrix

}  // namespace

util::Result<ApplicationProfile> ApplicationProfile::Deserialize(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  auto fail = [](const std::string& what) {
    return util::Status::ParseError("profile: " + what);
  };
  if (!std::getline(in, line)) return fail("bad header");
  int version = 0;
  if (line == "adprom-profile v1") {
    version = 1;
  } else if (line == "adprom-profile v2") {
    version = 2;
  } else {
    return fail("bad header");
  }
  ApplicationProfile profile;
  std::string key;
  size_t alphabet_size = 0;

  in >> key >> profile.options.window_length;
  if (key != "window_length") return fail("expected window_length");
  if (!in) return fail("bad window_length value");
  if (profile.options.window_length < 2 ||
      profile.options.window_length > kMaxWindowLength) {
    return fail("window_length out of range");
  }
  int labels = 0;
  in >> key >> labels;
  if (key != "use_dd_labels") return fail("expected use_dd_labels");
  profile.options.use_dd_labels = labels != 0;
  int signatures = 0;
  in >> key >> signatures;
  if (key != "use_query_signatures")
    return fail("expected use_query_signatures");
  profile.options.use_query_signatures = signatures != 0;
  in >> key >> profile.threshold;
  if (key != "threshold") return fail("expected threshold");
  if (!in) return fail("bad threshold value");
  if (!std::isfinite(profile.threshold)) {
    return fail("threshold is not finite");
  }
  in >> key >> profile.num_sites;
  if (key != "num_sites") return fail("expected num_sites");
  in >> key >> profile.num_states;
  if (key != "num_states") return fail("expected num_states");
  in >> key >> alphabet_size;
  if (key != "alphabet") return fail("expected alphabet");
  if (!in) return fail("bad header counts");
  if (alphabet_size == 0 || alphabet_size > kMaxCount) {
    return fail("alphabet size out of range");
  }
  std::getline(in, line);  // eat newline
  for (size_t i = 0; i < alphabet_size; ++i) {
    if (!std::getline(in, line)) return fail("truncated alphabet");
    if (i == 0) {
      if (line != "<unk>") return fail("alphabet must start with <unk>");
      continue;  // Already present.
    }
    profile.alphabet.Intern(line);
  }
  if (profile.alphabet.size() != alphabet_size) {
    return fail("duplicate alphabet symbol");
  }

  size_t pair_count = 0;
  in >> key >> pair_count;
  if (key != "context_pairs") return fail("expected context_pairs");
  if (!in || pair_count > kMaxCount) {
    return fail("context_pairs count out of range");
  }
  for (size_t i = 0; i < pair_count; ++i) {
    std::string caller, callee;
    if (!(in >> caller >> callee)) return fail("truncated context_pairs");
    profile.context_pairs.insert({caller, callee});
  }

  size_t source_count = 0;
  in >> key >> source_count;
  if (key != "labeled_sources") return fail("expected labeled_sources");
  if (!in || source_count > kMaxCount) {
    return fail("labeled_sources count out of range");
  }
  std::getline(in, line);
  for (size_t i = 0; i < source_count; ++i) {
    if (!std::getline(in, line)) return fail("truncated labeled_sources");
    const std::vector<std::string> parts = util::SplitWhitespace(line);
    if (parts.empty()) return fail("empty labeled_sources row");
    profile.labeled_sources[parts[0]] =
        std::vector<std::string>(parts.begin() + 1, parts.end());
  }

  size_t n = 0;
  size_t m = 0;
  in >> key >> n >> m;
  if (key != "hmm") return fail("expected hmm");
  if (!in) return fail("bad hmm dimensions");
  if (n == 0 || m == 0 || n * n > kMaxMatrixCells ||
      m > kMaxMatrixCells / n) {
    return fail("hmm dimensions out of range");
  }
  // The emission matrix must cover exactly the observation alphabet: a
  // symbol id emitted by Encode() indexes column id of B.
  if (m != alphabet_size) {
    return fail("hmm symbol count does not match alphabet size");
  }
  util::Matrix a(n, n);
  util::Matrix b(n, m);
  std::vector<double> pi(n);
  if (version >= 2) {
    in >> key;
    if (key != "a-sparse") return fail("expected a-sparse");
    for (size_t s = 0; s < n; ++s) {
      size_t nnz = 0;
      in >> nnz;
      if (!in || nnz > n) return fail("a-sparse row count out of range");
      size_t prev_col = 0;
      for (size_t k = 0; k < nnz; ++k) {
        size_t col = 0;
        double value = 0.0;
        in >> col >> value;
        if (!in) return fail("truncated a-sparse row");
        if (col >= n || (k > 0 && col <= prev_col)) {
          return fail("a-sparse columns must be increasing and in range");
        }
        a.At(s, col) = value;
        prev_col = col;
      }
    }
  } else {
    for (size_t s = 0; s < n; ++s) {
      for (size_t t = 0; t < n; ++t) in >> a.At(s, t);
    }
  }
  for (size_t s = 0; s < n; ++s) {
    for (size_t o = 0; o < m; ++o) in >> b.At(s, o);
  }
  for (size_t s = 0; s < n; ++s) in >> pi[s];
  if (!in) return fail("truncated hmm parameters");
  profile.model = hmm::HmmModel(std::move(a), std::move(b), std::move(pi));
  ADPROM_RETURN_IF_ERROR(profile.model.Validate(1e-3));
  return std::move(profile);
}

}  // namespace adprom::core
