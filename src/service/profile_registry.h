#ifndef ADPROM_SERVICE_PROFILE_REGISTRY_H_
#define ADPROM_SERVICE_PROFILE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/detection_engine.h"
#include "core/profile.h"
#include "util/status.h"

namespace adprom::service {

/// One immutable, versioned deployment of a tenant's application profile:
/// the profile itself plus its compiled DetectionEngine (CSR transition
/// matrix, batch scorer, triage tables). Built once per (tenant, version)
/// and shared read-only by every session of that tenant — no session pays
/// an engine compilation of its own, which is what makes 10k+ concurrent
/// sessions per node affordable.
///
/// Handles are reached through shared_ptr and never mutated after
/// construction: a hot reload swaps the registry's pointer while live
/// sessions keep scoring against the handle they pinned at creation, so
/// every session's verdict stream is attributable to exactly one
/// generation.
class ProfileHandle {
 public:
  ProfileHandle(std::string tenant, std::string version, uint64_t generation,
                core::ApplicationProfile profile)
      : tenant_(std::move(tenant)),
        version_(std::move(version)),
        generation_(generation),
        profile_(std::move(profile)),
        engine_(&profile_) {}

  ProfileHandle(const ProfileHandle&) = delete;
  ProfileHandle& operator=(const ProfileHandle&) = delete;

  const std::string& tenant() const { return tenant_; }
  /// Provenance of this deployment (source filename, or "inline").
  const std::string& version() const { return version_; }
  /// Per-tenant monotone counter: 1 on first load, +1 per successful
  /// reload. Failed reloads never mint a generation.
  uint64_t generation() const { return generation_; }
  const core::ApplicationProfile& profile() const { return profile_; }
  const core::DetectionEngine& engine() const { return engine_; }

 private:
  std::string tenant_;
  std::string version_;
  uint64_t generation_;
  core::ApplicationProfile profile_;
  /// Compiled against profile_; the handle is heap-pinned (non-copyable,
  /// non-movable, always behind shared_ptr) so the pointer stays valid.
  core::DetectionEngine engine_;
};

/// Hot-loadable map of tenant -> current ProfileHandle. Thread-safe: Get
/// is a mutex-guarded shared_ptr copy (the "atomic pointer swap" the
/// reload path performs is an assignment under the same mutex), so
/// readers always observe either the complete old handle or the complete
/// new one — never a torn profile.
///
/// Reload is fail-closed with rollback: the candidate profile text is
/// parsed and validated BEFORE the swap; any error leaves the previous
/// handle installed and its generation unchanged.
class ProfileRegistry {
 public:
  /// Loads every `*.profile` file in `dir` (tenant = file stem).
  /// All-or-nothing against the registry's prior state per tenant: a file
  /// that fails to parse/validate fails the call and installs nothing
  /// from it, but files already installed by this call stay (each tenant
  /// swap is independent). Returns the number of tenants loaded.
  util::Result<size_t> LoadDirectory(const std::string& dir);

  /// Installs an in-memory profile for `tenant` (validating it first).
  /// First install mints generation 1; re-install bumps the generation
  /// like a reload.
  util::Status Install(const std::string& tenant,
                       core::ApplicationProfile profile,
                       const std::string& version = "inline");

  /// Parses + validates serialized profile text and atomically swaps it in
  /// as `tenant`'s new generation. On any failure the previous version
  /// stays live (rollback) and the error is returned and remembered in
  /// last_error(tenant).
  util::Status Reload(const std::string& tenant, const std::string& text,
                      const std::string& version = "inline");

  /// Reload from a file on disk.
  util::Status ReloadFile(const std::string& tenant,
                          const std::string& path);

  /// The tenant's current handle, or nullptr when unknown — callers must
  /// fail closed (an event for an unloaded tenant is never scored against
  /// some other profile).
  std::shared_ptr<const ProfileHandle> Get(const std::string& tenant) const;

  /// Removes the tenant (live sessions keep their pinned handle).
  bool Remove(const std::string& tenant);

  /// Current generation of `tenant` (0 = not loaded).
  uint64_t Generation(const std::string& tenant) const;

  /// The diagnostic of the tenant's most recent FAILED reload (empty when
  /// the last reload succeeded or none happened). Survives rollback so an
  /// operator can see why the old version is still serving.
  std::string last_error(const std::string& tenant) const;

  std::vector<std::string> Tenants() const;
  size_t size() const;

 private:
  /// Sanity checks beyond what Deserialize already enforces, applied to
  /// in-memory installs too (Deserialize-validated text goes through the
  /// same gate for uniformity).
  static util::Status Validate(const core::ApplicationProfile& profile);

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ProfileHandle>> tenants_;
  /// Generations outlive handles so a Remove + re-Install cannot reuse a
  /// generation number a closed session already reported.
  std::map<std::string, uint64_t> generations_;
  std::map<std::string, std::string> last_errors_;
};

}  // namespace adprom::service

#endif  // ADPROM_SERVICE_PROFILE_REGISTRY_H_
