#include "hmm/inference.h"

#include <cmath>
#include <limits>

#include "util/strings.h"

namespace adprom::hmm {

util::Status ValidateSequence(size_t num_symbols, SymbolSpan seq) {
  if (seq.empty())
    return util::Status::InvalidArgument("empty observation sequence");
  for (int symbol : seq) {
    if (symbol < 0 || static_cast<size_t>(symbol) >= num_symbols) {
      return util::Status::OutOfRange(util::StrFormat(
          "symbol %d out of range [0, %zu)", symbol, num_symbols));
    }
  }
  return util::Status::Ok();
}

namespace {

util::Status CheckSequence(const HmmModel& model, SymbolSpan seq) {
  return ValidateSequence(model.num_symbols(), seq);
}

}  // namespace

util::Result<double> ForwardInto(const HmmModel& model, SymbolSpan seq,
                                 ForwardWorkspace* ws) {
  ADPROM_RETURN_IF_ERROR(CheckSequence(model, seq));
  const size_t n = model.num_states();
  const size_t t_len = seq.size();

  ws->alpha.Reshape(t_len, n);
  ws->scale.assign(t_len, 0.0);

  // t = 0.
  double total = 0.0;
  for (size_t s = 0; s < n; ++s) {
    const double v = model.pi()[s] * model.b().At(s, seq[0]);
    ws->alpha.At(0, s) = v;
    total += v;
  }
  total = std::max(total, kScaleFloor);
  ws->scale[0] = total;
  for (size_t s = 0; s < n; ++s) ws->alpha.At(0, s) /= total;

  // t > 0. Raw-pointer loops: this is the library's hottest path (called
  // once per window per Baum-Welch iteration and per detection score).
  for (size_t t = 1; t < t_len; ++t) {
    total = 0.0;
    const double* prev = ws->alpha.RowData(t - 1);
    double* cur = ws->alpha.RowData(t);
    for (size_t s = 0; s < n; ++s) cur[s] = 0.0;
    for (size_t p = 0; p < n; ++p) {
      const double alpha_p = prev[p];
      if (alpha_p == 0.0) continue;
      const double* a_row = model.a().RowData(p);
      for (size_t s = 0; s < n; ++s) cur[s] += alpha_p * a_row[s];
    }
    for (size_t s = 0; s < n; ++s) {
      cur[s] *= model.b().At(s, seq[t]);
      total += cur[s];
    }
    total = std::max(total, kScaleFloor);
    ws->scale[t] = total;
    for (size_t s = 0; s < n; ++s) cur[s] /= total;
  }

  double log_likelihood = 0.0;
  for (double c : ws->scale) log_likelihood += std::log(c);
  return log_likelihood;
}

util::Result<ForwardVariables> Forward(const HmmModel& model,
                                       SymbolSpan seq) {
  ForwardWorkspace ws;
  ADPROM_ASSIGN_OR_RETURN(double log_likelihood,
                          ForwardInto(model, seq, &ws));
  ForwardVariables fw;
  fw.alpha = std::move(ws.alpha);
  fw.scale = std::move(ws.scale);
  fw.log_likelihood = log_likelihood;
  return std::move(fw);
}

util::Result<double> LogLikelihood(const HmmModel& model, SymbolSpan seq) {
  ForwardWorkspace ws;
  return ForwardInto(model, seq, &ws);
}

util::Result<double> PerSymbolLogLikelihood(const HmmModel& model,
                                            SymbolSpan seq) {
  ForwardWorkspace ws;
  return PerSymbolLogLikelihood(model, seq, &ws);
}

util::Result<double> PerSymbolLogLikelihood(const HmmModel& model,
                                            SymbolSpan seq,
                                            ForwardWorkspace* workspace) {
  ADPROM_ASSIGN_OR_RETURN(double log_likelihood,
                          ForwardInto(model, seq, workspace));
  return log_likelihood / static_cast<double>(seq.size());
}

util::Status BackwardInto(const HmmModel& model, SymbolSpan seq,
                          const std::vector<double>& scale,
                          BackwardWorkspace* ws) {
  ADPROM_RETURN_IF_ERROR(CheckSequence(model, seq));
  if (scale.size() != seq.size())
    return util::Status::InvalidArgument("scale size mismatch");
  const size_t n = model.num_states();
  const size_t t_len = seq.size();

  ws->beta.Reshape(t_len, n);
  ws->emit_next.assign(n, 0.0);
  util::Matrix& beta = ws->beta;
  std::vector<double>& emit_next = ws->emit_next;
  for (size_t s = 0; s < n; ++s)
    beta.At(t_len - 1, s) = 1.0 / scale[t_len - 1];
  for (size_t t = t_len - 1; t-- > 0;) {
    const double* next = beta.RowData(t + 1);
    double* cur = beta.RowData(t);
    for (size_t q = 0; q < n; ++q)
      emit_next[q] = model.b().At(q, seq[t + 1]) * next[q];
    for (size_t s = 0; s < n; ++s) {
      const double* a_row = model.a().RowData(s);
      double acc = 0.0;
      for (size_t q = 0; q < n; ++q) acc += a_row[q] * emit_next[q];
      cur[s] = acc / scale[t];
    }
  }
  return util::Status::Ok();
}

util::Result<util::Matrix> Backward(const HmmModel& model, SymbolSpan seq,
                                    const std::vector<double>& scale) {
  BackwardWorkspace ws;
  ADPROM_RETURN_IF_ERROR(BackwardInto(model, seq, scale, &ws));
  return std::move(ws.beta);
}

util::Result<std::vector<size_t>> Viterbi(const HmmModel& model,
                                          SymbolSpan seq) {
  ADPROM_RETURN_IF_ERROR(CheckSequence(model, seq));
  const size_t n = model.num_states();
  const size_t t_len = seq.size();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  auto safe_log = [](double v) {
    return v > 0.0 ? std::log(v) : -1e18;
  };

  util::Matrix delta(t_len, n, kNegInf);
  // Backpointers in one contiguous T x N buffer (psi[t*n + s]) instead of
  // a vector-of-vectors: one allocation instead of T small ones.
  std::vector<size_t> psi(t_len * n, 0);
  for (size_t s = 0; s < n; ++s) {
    delta.At(0, s) =
        safe_log(model.pi()[s]) + safe_log(model.b().At(s, seq[0]));
  }
  for (size_t t = 1; t < t_len; ++t) {
    for (size_t s = 0; s < n; ++s) {
      double best = kNegInf;
      size_t best_prev = 0;
      for (size_t p = 0; p < n; ++p) {
        const double v = delta.At(t - 1, p) + safe_log(model.a().At(p, s));
        if (v > best) {
          best = v;
          best_prev = p;
        }
      }
      delta.At(t, s) = best + safe_log(model.b().At(s, seq[t]));
      psi[t * n + s] = best_prev;
    }
  }

  std::vector<size_t> path(t_len, 0);
  double best = kNegInf;
  for (size_t s = 0; s < n; ++s) {
    if (delta.At(t_len - 1, s) > best) {
      best = delta.At(t_len - 1, s);
      path[t_len - 1] = s;
    }
  }
  for (size_t t = t_len - 1; t-- > 0;)
    path[t] = psi[(t + 1) * n + path[t + 1]];
  return std::move(path);
}

}  // namespace adprom::hmm
