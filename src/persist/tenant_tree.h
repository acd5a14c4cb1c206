// The multi-tenant checkpoint tree: <root>/<tenant_dir>/ holds each
// tenant's snapshots + write-ahead journal, where <tenant_dir> is the
// tenant id percent-encoded so any id is filesystem-safe and the mapping
// is reversible (ListTenantIds recovers the original ids on restart).
//
// Pack/UnpackCheckpointDir flatten one tenant's directory into a single
// self-checking buffer and back — the streaming format of live tenant
// migration: the source node packs the tree its eviction checkpoint
// sealed, ships it over the admin RPC, and the target unpacks it into its
// own checkpoint root before re-admitting the tenant.
#ifndef WFIT_PERSIST_TENANT_TREE_H_
#define WFIT_PERSIST_TENANT_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wfit::persist {

/// Percent-encodes every byte outside [A-Za-z0-9_.-] (plus '.' and '..'
/// themselves, and a *leading* '_') so the result is a safe, reversible
/// directory name.
std::string EncodeTenantDir(const std::string& tenant_id);

/// Inverse of EncodeTenantDir; malformed escapes decode to themselves.
std::string DecodeTenantDir(const std::string& dir_name);

/// The tenant's checkpoint directory under `root` (not created).
std::string TenantCheckpointDir(const std::string& root,
                                const std::string& tenant_id);

/// Decoded tenant ids of every subdirectory of `root`, sorted — what a
/// restarted router can re-admit. NotFound-free: a missing root is just an
/// empty tree. Stray entries that cannot be a tenant directory — regular
/// files, sockets, or names EncodeTenantDir could never have produced —
/// are skipped (counted in *skipped when non-null) instead of failing the
/// whole recovery: one foreign file in the root must not take the fleet
/// down.
StatusOr<std::vector<std::string>> ListTenantIds(const std::string& root,
                                                 uint64_t* skipped = nullptr);

/// Packs every regular file directly inside `dir` (snapshots + journal;
/// the tree is flat by construction) into one self-checking buffer:
/// [magic][version][count][{name,contents}...][crc]. NotFound when the
/// directory does not exist.
StatusOr<std::string> PackCheckpointDir(const std::string& dir);

/// Unpacks a PackCheckpointDir buffer into `dir`, REPLACING any existing
/// contents — the migrated tree is authoritative over local leftovers.
/// Every file is fsynced and then the directory itself, so a crash during
/// import can never leave a half-written tenant that looks recoverable.
/// Corruption (bad magic/version/crc, truncation, unsafe file names) is
/// rejected with InvalidArgument before anything is written.
Status UnpackCheckpointDir(std::string_view pack, const std::string& dir);

}  // namespace wfit::persist

#endif  // WFIT_PERSIST_TENANT_TREE_H_
