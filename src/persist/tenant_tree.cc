#include "persist/tenant_tree.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "persist/codec.h"

namespace wfit::persist {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kPackMagic = 0x4B504657u;  // "WFPK" (LE)
constexpr uint32_t kPackVersion = 1;

bool SafeChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// A file name that is safe to create verbatim inside a directory: no
/// separators, no traversal, not empty. Everything our snapshot/journal
/// writers produce qualifies; a hostile pack must not escape the dir.
bool SafeFileName(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  for (char c : name) {
    if (c == '/' || c == '\\' || c == '\0') return false;
  }
  return true;
}

Status SyncFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Internal("cannot open for fsync: " + path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("fsync failed: " + path);
  return Status::Ok();
}

}  // namespace

std::string EncodeTenantDir(const std::string& tenant_id) {
  std::string out;
  out.reserve(tenant_id.size());
  for (char c : tenant_id) {
    // A leading '_' is escaped even though '_' is safe elsewhere: the
    // encoder has always done so, and existing tenant directories are
    // named by it.
    if (SafeChar(c) && !(out.empty() && c == '_')) {
      out += c;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  // "." and ".." are legal tenant ids but reserved path names.
  if (out == ".") return "%2E";
  if (out == "..") return "%2E%2E";
  if (out.empty()) return "%";  // the empty id still needs a directory name
  return out;
}

std::string DecodeTenantDir(const std::string& dir_name) {
  if (dir_name == "%") return "";
  std::string out;
  out.reserve(dir_name.size());
  for (size_t i = 0; i < dir_name.size(); ++i) {
    if (dir_name[i] == '%' && i + 2 < dir_name.size()) {
      int hi = HexDigit(dir_name[i + 1]);
      int lo = HexDigit(dir_name[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += dir_name[i];
  }
  return out;
}

std::string TenantCheckpointDir(const std::string& root,
                                const std::string& tenant_id) {
  return (fs::path(root) / EncodeTenantDir(tenant_id)).string();
}

StatusOr<std::vector<std::string>> ListTenantIds(const std::string& root,
                                                 uint64_t* skipped) {
  std::vector<std::string> ids;
  if (skipped != nullptr) *skipped = 0;
  std::error_code ec;
  if (!fs::exists(root, ec)) return ids;
  // Error-code overloads throughout: a subtree vanishing or turning
  // unreadable mid-listing (external cleanup racing us) must surface as a
  // Status, not a std::filesystem_error.
  fs::directory_iterator it(root, ec);
  if (ec) {
    return Status::Internal("cannot list checkpoint root " + root + ": " +
                            ec.message());
  }
  auto skip = [&] {
    if (skipped != nullptr) ++*skipped;
  };
  for (fs::directory_iterator end; it != end;) {
    std::error_code type_ec;
    if (it->is_directory(type_ec) && !type_ec) {
      // Only names EncodeTenantDir could have produced are tenant
      // directories: the decoded id must re-encode to the exact entry
      // name. "lost+found", editor droppings, or a truncated "%2" can
      // never be ours — skip them instead of inventing a phantom tenant
      // whose re-admission would then fail.
      const std::string name = it->path().filename().string();
      const std::string id = DecodeTenantDir(name);
      if (EncodeTenantDir(id) == name) {
        ids.push_back(id);
      } else {
        skip();
      }
    } else {
      // Regular files / sockets / unreadable entries in the root are not
      // tenants; recovery of everything else must proceed.
      skip();
    }
    it.increment(ec);
    if (ec) {  // a failed increment lands on end, so check before looping
      return Status::Internal("cannot list checkpoint root " + root + ": " +
                              ec.message());
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

StatusOr<std::string> PackCheckpointDir(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    return Status::NotFound("pack: no such checkpoint directory: " + dir);
  }
  // Deterministic member order (sorted names) so identical trees pack to
  // identical bytes.
  std::vector<std::string> names;
  fs::directory_iterator it(dir, ec);
  if (ec) return Status::Internal("pack: cannot list " + dir);
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) return Status::Internal("pack: cannot list " + dir);
    std::error_code type_ec;
    if (it->is_regular_file(type_ec) && !type_ec) {
      names.push_back(it->path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());

  Encoder e;
  e.PutU32(kPackMagic);
  e.PutU32(kPackVersion);
  e.PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    std::ifstream in((fs::path(dir) / name).string(), std::ios::binary);
    if (!in) return Status::Internal("pack: cannot read " + name);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    if (in.bad()) return Status::Internal("pack: read failed for " + name);
    e.PutString(name);
    e.PutString(contents);
  }
  const uint32_t crc = Crc32(e.data());
  e.PutU32(crc);
  return e.Release();
}

Status UnpackCheckpointDir(std::string_view pack, const std::string& dir) {
  if (pack.size() < 16) {
    return Status::InvalidArgument("unpack: truncated pack");
  }
  // Verify the trailer CRC over everything before it, then parse.
  Decoder crc_d(pack.substr(pack.size() - 4));
  uint32_t stored_crc = 0;
  WFIT_RETURN_IF_ERROR(crc_d.GetU32(&stored_crc));
  const std::string_view body = pack.substr(0, pack.size() - 4);
  if (Crc32(body) != stored_crc) {
    return Status::InvalidArgument("unpack: pack crc mismatch");
  }
  Decoder d(body);
  uint32_t magic = 0, version = 0, count = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&magic));
  WFIT_RETURN_IF_ERROR(d.GetU32(&version));
  if (magic != kPackMagic) {
    return Status::InvalidArgument("unpack: bad magic");
  }
  if (version != kPackVersion) {
    return Status::InvalidArgument("unpack: unsupported pack version " +
                                   std::to_string(version));
  }
  WFIT_RETURN_IF_ERROR(d.GetCount(&count, 8));  // two length prefixes
  // Fully decode (and vet names) before touching the filesystem so a
  // corrupt pack rejects without side effects.
  std::vector<std::pair<std::string, std::string>> files;
  files.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name, contents;
    WFIT_RETURN_IF_ERROR(d.GetString(&name));
    WFIT_RETURN_IF_ERROR(d.GetString(&contents));
    if (!SafeFileName(name)) {
      return Status::InvalidArgument("unpack: unsafe file name: " + name);
    }
    files.emplace_back(std::move(name), std::move(contents));
  }
  if (!d.done()) {
    return Status::InvalidArgument("unpack: trailing bytes after pack");
  }

  // Replace the directory: the migrated tree is authoritative; merging
  // with a stale local tree could resurrect an older incarnation.
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) return Status::Internal("unpack: cannot clear " + dir);
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("unpack: cannot create " + dir);
  for (const auto& [name, contents] : files) {
    const std::string path = (fs::path(dir) / name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("unpack: cannot write " + path);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.close();
    if (!out) return Status::Internal("unpack: write failed for " + path);
    WFIT_RETURN_IF_ERROR(SyncFile(path));
  }
  return SyncFile(dir);
}

}  // namespace wfit::persist
