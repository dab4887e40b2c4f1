#include "data/synthetic.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/random.hpp"

namespace dkfac::data {

void SyntheticSpec::validate() const {
  DKFAC_CHECK(num_classes >= 2);
  DKFAC_CHECK(channels >= 1 && height >= 1 && width >= 1);
  DKFAC_CHECK(train_size >= num_classes && val_size >= num_classes);
  DKFAC_CHECK(noise >= 0.0f);
  DKFAC_CHECK(grid >= 1 && grid <= height && grid <= width);
}

namespace {

/// Bilinear upsample of a [C, g, g] grid to [C, H, W], written into
/// `dst` (contiguous C·H·W floats).
void upsample_grid(const std::vector<float>& grid, int64_t c, int64_t g,
                   int64_t h, int64_t w, float* dst) {
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* src = grid.data() + ch * g * g;
    for (int64_t y = 0; y < h; ++y) {
      // Map pixel centre into grid coordinates.
      const float gy = (static_cast<float>(y) + 0.5f) / static_cast<float>(h) *
                           static_cast<float>(g) - 0.5f;
      const int64_t y0 = std::max<int64_t>(0, static_cast<int64_t>(std::floor(gy)));
      const int64_t y1 = std::min(g - 1, y0 + 1);
      const float fy = std::min(1.0f, std::max(0.0f, gy - static_cast<float>(y0)));
      for (int64_t x = 0; x < w; ++x) {
        const float gx = (static_cast<float>(x) + 0.5f) / static_cast<float>(w) *
                             static_cast<float>(g) - 0.5f;
        const int64_t x0 = std::max<int64_t>(0, static_cast<int64_t>(std::floor(gx)));
        const int64_t x1 = std::min(g - 1, x0 + 1);
        const float fx = std::min(1.0f, std::max(0.0f, gx - static_cast<float>(x0)));
        const float top = src[y0 * g + x0] * (1.0f - fx) + src[y0 * g + x1] * fx;
        const float bot = src[y1 * g + x0] * (1.0f - fx) + src[y1 * g + x1] * fx;
        dst[(ch * h + y) * w + x] = top * (1.0f - fy) + bot * fy;
      }
    }
  }
}

}  // namespace

SyntheticImageDataset::SyntheticImageDataset(SyntheticSpec spec, Split split)
    : spec_(spec),
      split_(split),
      size_(split == Split::kTrain ? spec.train_size : spec.val_size),
      prototypes_(Shape{spec.num_classes, spec.channels, spec.height, spec.width}) {
  spec_.validate();
  const int64_t c = spec_.channels, h = spec_.height, w = spec_.width,
                g = spec_.grid;
  std::vector<float> grid(static_cast<size_t>(c * g * g));
  for (int64_t cls = 0; cls < spec_.num_classes; ++cls) {
    // One RNG stream per class — prototypes are split-independent, so the
    // validation set measures true generalisation over the noise.
    Rng rng(spec_.seed, 0x9000 + static_cast<uint64_t>(cls));
    rng.fill_normal(grid);
    upsample_grid(grid, c, g, h, w,
                  prototypes_.data() + cls * c * h * w);
  }
}

int64_t SyntheticImageDataset::generate(int64_t index, Tensor& out,
                                        int64_t slot) const {
  DKFAC_CHECK(index >= 0 && index < size_)
      << "sample index " << index << " out of range [0, " << size_ << ")";
  const int64_t c = spec_.channels, h = spec_.height, w = spec_.width;
  DKFAC_CHECK(out.ndim() == 4 && out.dim(1) == c && out.dim(2) == h &&
              out.dim(3) == w && slot >= 0 && slot < out.dim(0))
      << "bad output batch shape " << out.shape();

  // Balanced labels; noise stream disambiguated by split so train and val
  // draws never overlap.
  const int64_t label = index % spec_.num_classes;
  const uint64_t split_tag = split_ == Split::kTrain ? 0x1111 : 0x2222;
  Rng rng(spec_.seed, split_tag * 0x10000 + static_cast<uint64_t>(index));

  const float* proto = prototypes_.data() + label * c * h * w;
  float* dst = out.data() + slot * c * h * w;
  for (int64_t i = 0; i < c * h * w; ++i) {
    dst[i] = proto[i] + spec_.noise * rng.normal();
  }
  return label;
}

Batch SyntheticImageDataset::get(const std::vector<int64_t>& indices) const {
  const int64_t n = static_cast<int64_t>(indices.size());
  Batch batch;
  batch.images = Tensor(Shape{n, spec_.channels, spec_.height, spec_.width});
  batch.labels.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    batch.labels[static_cast<size_t>(i)] =
        generate(indices[static_cast<size_t>(i)], batch.images, i);
  }
  return batch;
}

}  // namespace dkfac::data
