#ifndef ADPROM_SERVICE_FLEET_NODE_H_
#define ADPROM_SERVICE_FLEET_NODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/call_event.h"
#include "service/alert_sink.h"
#include "service/metrics.h"
#include "service/profile_registry.h"
#include "service/session_manager.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace adprom::service {

/// Tuning knobs for a multi-tenant fleet node.
struct FleetOptions {
  /// Number of independent SessionManager shards sessions hash across.
  /// Each shard has its own session map + mutex, so shard count bounds
  /// submit-path lock contention, not correctness: verdicts are per
  /// session and identical for any shard count.
  size_t num_shards = 1;
  /// Per-shard manager tuning (queue capacity, overflow policy, batching).
  SessionManagerOptions session;
  /// When true (multi-tenant serving) the AlertSink sees sessions as
  /// "tenant/session-key". When false (single-profile compatibility mode)
  /// it sees the bare session key, matching the pre-fleet CLI output.
  bool qualify_sink_ids = true;
};

/// Multi-tenant detection fleet node: routes (tenant, session-key, event)
/// triples to one of N SessionManager shards, resolving each session's
/// profile through a hot-loadable ProfileRegistry.
///
/// Sharding is a stable hash of tenant + session key, so one session's
/// events always land on the same shard (preserving per-session ordering)
/// while different sessions — including of the same tenant — spread
/// across shards. The shard count changes only contention and backlog
/// distribution, never verdicts: each session's verdict stream stays
/// bit-identical to DetectionEngine::MonitorTrace regardless.
///
/// Profile resolution is fail-closed: an event for a tenant the registry
/// does not currently serve is rejected with NotFound — it is never
/// scored against another tenant's profile or a stale default. Sessions
/// pin their profile handle (and thus generation) at creation; a hot
/// reload affects only sessions created after the swap.
class FleetNode {
 public:
  /// `registry`, `sink`, and `pool` (nullable: inline scoring) must
  /// outlive the node.
  FleetNode(ProfileRegistry* registry, AlertSink* sink,
            util::ThreadPool* pool, FleetOptions options = FleetOptions());

  FleetNode(const FleetNode&) = delete;
  FleetNode& operator=(const FleetNode&) = delete;

  /// Routes one event of `tenant`'s session `session_key`, moving it into
  /// the session queue. NotFound when the tenant has no live profile (fail
  /// closed).
  util::Status Submit(const std::string& tenant,
                      const std::string& session_key,
                      runtime::CallEvent event);

  /// Burst submit (the span is copied): one registry lookup + one shard
  /// lock acquisition for the whole span.
  util::Status SubmitBatch(const std::string& tenant,
                           const std::string& session_key,
                           std::span<const runtime::CallEvent> events);

  /// Ends the session (short-session verdict + final stats to the sink).
  util::Status CloseSession(const std::string& tenant,
                            const std::string& session_key);

  /// Closes every live session on every shard.
  void CloseAll();

  /// Blocks until every queued event on every shard has been scored.
  void Drain();

  /// Which shard `(tenant, session_key)` routes to — exposed so tests can
  /// assert the distribution and aim traffic at one shard.
  size_t ShardIndex(const std::string& tenant,
                    const std::string& session_key) const;

  /// Per-shard + per-tenant ops snapshot (the `--metrics` surface).
  FleetMetrics Metrics() const;

  size_t num_shards() const { return shards_.size(); }
  /// Live sessions across all shards.
  size_t num_sessions() const;
  /// Events dropped by kDropOldest across all shards.
  size_t total_dropped() const;

 private:
  /// Stable per-tenant counter block (created on first touch; addresses
  /// never move — sessions keep raw pointers into it).
  TenantCounters* CountersFor(const std::string& tenant);
  /// Resolves the tenant's live profile (NotFound when none) and fills
  /// the binding a new session would get. The display id is left in
  /// parts; the shard composes it only if the submit creates the session.
  util::Status Bind(const std::string& tenant, const std::string& session_key,
                    SessionBinding* binding);

  ProfileRegistry* registry_;
  FleetOptions options_;
  std::vector<std::unique_ptr<SessionManager>> shards_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantCounters>> tenants_;
};

}  // namespace adprom::service

#endif  // ADPROM_SERVICE_FLEET_NODE_H_
