#include "nn/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "nn/batchnorm.hpp"

namespace dkfac::nn {

namespace {

constexpr char kMagic[4] = {'D', 'K', 'F', 'C'};
constexpr uint32_t kVersion = 2;
// Footer: magic + u64 byte length of everything before the footer. A file
// cut anywhere — even exactly at an entry boundary — fails the footer
// check, so a crash mid-write can never masquerade as a valid checkpoint.
constexpr char kFooterMagic[4] = {'D', 'K', 'F', 'E'};

struct Entry {
  std::string name;
  const Tensor* tensor;       // save path
  Tensor* mutable_tensor;     // load path
};

/// Every named tensor of the model: parameters + BatchNorm running stats.
std::vector<Entry> collect_entries(Layer& model) {
  std::vector<Entry> entries;
  for (Parameter* p : model.parameters()) {
    entries.push_back({p->name, &p->value, &p->value});
  }
  for (Layer* m : model.modules()) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(m)) {
      // running_mean()/running_var() expose const refs; the stats live in
      // the layer, so the const_cast writes back into the same storage.
      entries.push_back({bn->name() + ".running_mean", &bn->running_mean(),
                         const_cast<Tensor*>(&bn->running_mean())});
      entries.push_back({bn->name() + ".running_var", &bn->running_var(),
                         const_cast<Tensor*>(&bn->running_var())});
    }
  }
  return entries;
}

/// Byte-counting writer: the footer needs the exact payload length, and
/// counting as we go works on non-seekable streams too.
struct CountingWriter {
  std::ostream& out;
  uint64_t written = 0;
  void write(const void* p, size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    written += n;
  }
  void u64(uint64_t v) { write(&v, sizeof(v)); }
};

struct CountingReader {
  std::istream& in;
  uint64_t consumed = 0;
  void read(void* p, size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    DKFAC_CHECK(in.good()) << "checkpoint truncated";
    consumed += n;
  }
  uint64_t u64() {
    uint64_t v = 0;
    read(&v, sizeof(v));
    return v;
  }
};

}  // namespace

void save_checkpoint(Layer& model, std::ostream& out) {
  const std::vector<Entry> entries = collect_entries(model);
  CountingWriter w{out};
  w.write(kMagic, sizeof(kMagic));
  w.write(&kVersion, sizeof(kVersion));
  w.u64(entries.size());
  for (const Entry& e : entries) {
    w.u64(e.name.size());
    w.write(e.name.data(), e.name.size());
    const auto& dims = e.tensor->shape().dims();
    w.u64(dims.size());
    for (int64_t d : dims) w.u64(static_cast<uint64_t>(d));
    w.write(e.tensor->data(), e.tensor->numel() * sizeof(float));
  }
  out.write(kFooterMagic, sizeof(kFooterMagic));
  const uint64_t payload = w.written;
  out.write(reinterpret_cast<const char*>(&payload), sizeof(payload));
  DKFAC_CHECK(out.good()) << "checkpoint write failed";
}

void save_checkpoint(Layer& model, const std::string& path) {
  // Write-to-temp + fsync + atomic rename: a crash (or full disk) at any
  // point leaves either the previous checkpoint or a stray .tmp — never a
  // truncated file under the real name that a rejoining rank would load.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    DKFAC_CHECK(out.is_open()) << "cannot open " << tmp << " for writing";
    save_checkpoint(model, out);
    out.flush();
    DKFAC_CHECK(out.good()) << "checkpoint write failed: " << tmp;
  }
  commit_file(tmp, path);
}

void commit_file(const std::string& tmp, const std::string& path) {
  const int fd = ::open(tmp.c_str(), O_WRONLY);
  DKFAC_CHECK(fd >= 0) << "cannot reopen " << tmp << " for fsync";
  const int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) {
    std::remove(tmp.c_str());
    throw Error("fsync failed: " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("rename failed: " + tmp + " -> " + path);
  }
  // Durability of the rename itself: sync the containing directory
  // (best-effort — some filesystems refuse directory fsync).
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
}

void load_checkpoint(Layer& model, std::istream& in) {
  CountingReader r{in};
  char magic[4];
  in.read(magic, sizeof(magic));
  DKFAC_CHECK(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0)
      << "not a dkfac checkpoint";
  r.consumed += sizeof(magic);
  uint32_t version = 0;
  r.read(&version, sizeof(version));
  DKFAC_CHECK(version == kVersion)
      << "unsupported checkpoint version " << version;

  std::map<std::string, Tensor*> targets;
  for (Entry& e : collect_entries(model)) {
    DKFAC_CHECK(targets.emplace(e.name, e.mutable_tensor).second)
        << "duplicate tensor name in model: " << e.name;
  }

  const uint64_t count = r.u64();
  size_t restored = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t name_len = r.u64();
    DKFAC_CHECK(name_len < (1u << 16)) << "checkpoint name length corrupt";
    std::string name(name_len, '\0');
    r.read(name.data(), name_len);
    const uint64_t ndim = r.u64();
    DKFAC_CHECK(ndim <= 8) << "checkpoint tensor rank corrupt";
    std::vector<int64_t> dims(ndim);
    for (uint64_t d = 0; d < ndim; ++d) {
      dims[d] = static_cast<int64_t>(r.u64());
    }
    // The dims are untrusted: match them against the model before any
    // arithmetic on them, and size the read from the model's tensor.
    const Shape shape{std::move(dims)};
    const auto it = targets.find(name);
    DKFAC_CHECK(it != targets.end())
        << "checkpoint tensor '" << name << "' not present in the model";
    Tensor& target = *it->second;
    DKFAC_CHECK(target.shape() == shape)
        << "shape mismatch for '" << name << "': checkpoint " << shape
        << " vs model " << target.shape();
    r.read(target.data(), static_cast<size_t>(target.numel()) * sizeof(float));
    ++restored;
  }
  DKFAC_CHECK(restored == targets.size())
      << "checkpoint restored " << restored << " of " << targets.size()
      << " model tensors";

  // Footer: confirms the writer got all the way to the end AND that the
  // byte count matches what we just consumed.
  char footer[4];
  in.read(footer, sizeof(footer));
  DKFAC_CHECK(in.good() &&
              std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) == 0)
      << "checkpoint footer missing (truncated write?)";
  uint64_t payload = 0;
  in.read(reinterpret_cast<char*>(&payload), sizeof(payload));
  DKFAC_CHECK(in.good() && payload == r.consumed)
      << "checkpoint length footer mismatch: footer says " << payload
      << " bytes, stream held " << r.consumed;
}

void load_checkpoint(Layer& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DKFAC_CHECK(in.is_open()) << "cannot open " << path << " for reading";
  load_checkpoint(model, in);
}

}  // namespace dkfac::nn
