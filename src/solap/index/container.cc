#include "solap/index/container.h"

#include <algorithm>
#include <utility>

#if defined(SOLAP_X86_DISPATCH)
#include <immintrin.h>
#endif

namespace solap {

bool CpuHasSse42() {
#if defined(SOLAP_X86_DISPATCH)
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
#else
  return false;
#endif
}

namespace {

using Kind = SidContainer::Kind;

// Sets bits [s, l] (inclusive) in a bitmap container's words.
void SetWordRange(std::vector<uint64_t>& words, uint32_t s, uint32_t l) {
  for (uint32_t wi = s / 64; wi <= l / 64; ++wi) {
    uint64_t m = ~0ull;
    if (wi == s / 64) m &= ~0ull << (s % 64);
    if (wi == l / 64) {
      const uint32_t r = l % 64;
      m &= r == 63 ? ~0ull : ((1ull << (r + 1)) - 1);
    }
    words[wi] |= m;
  }
}

// Number of maximal runs in the container's member set.
uint32_t NumRuns(const SidContainer& c) {
  switch (c.kind) {
    case Kind::kRun:
      return static_cast<uint32_t>(c.values.size() / 2);
    case Kind::kArray: {
      if (c.values.empty()) return 0;
      uint32_t runs = 1;
      for (size_t i = 1; i < c.values.size(); ++i) {
        if (c.values[i] != c.values[i - 1] + 1) ++runs;
      }
      return runs;
    }
    case Kind::kBitmap: {
      uint32_t runs = 0;
      uint64_t carry = 0;  // bit 63 of the previous word
      for (uint64_t w : c.words) {
        runs += static_cast<uint32_t>(
            __builtin_popcountll(w & ~((w << 1) | carry)));
        carry = w >> 63;
      }
      return runs;
    }
  }
  return 0;
}

}  // namespace

size_t SidContainer::ByteSize() const {
  return sizeof(SidContainer) + values.capacity() * sizeof(uint16_t) +
         words.capacity() * sizeof(uint64_t);
}

bool SidContainer::Contains(uint16_t low) const {
  switch (kind) {
    case Kind::kArray:
      return std::binary_search(values.begin(), values.end(), low);
    case Kind::kBitmap:
      return (words[low >> 6] >> (low & 63)) & 1;
    case Kind::kRun: {
      // Last pair whose start <= low; pairs are sorted and disjoint.
      size_t lo = 0, hi = values.size() / 2;
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (values[mid * 2] <= low) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo > 0 && low <= values[(lo - 1) * 2 + 1];
    }
  }
  return false;
}

void SidContainer::ConvertToBitmap() {
  if (kind == Kind::kBitmap) return;
  std::vector<uint64_t> w(kContainerWords, 0);
  if (kind == Kind::kArray) {
    for (uint16_t v : values) w[v >> 6] |= 1ull << (v & 63);
  } else {
    for (size_t i = 0; i + 1 < values.size(); i += 2) {
      SetWordRange(w, values[i], values[i + 1]);
    }
  }
  words = std::move(w);
  values.clear();
  values.shrink_to_fit();
  kind = Kind::kBitmap;
}

void SidContainer::AppendLow(uint16_t low) {
  switch (kind) {
    case Kind::kArray:
      if (cardinality >= kArrayBitmapCrossover) {
        ConvertToBitmap();
        words[low >> 6] |= 1ull << (low & 63);
      } else {
        values.push_back(low);
      }
      break;
    case Kind::kBitmap:
      words[low >> 6] |= 1ull << (low & 63);
      break;
    case Kind::kRun:
      if (!values.empty() &&
          static_cast<uint32_t>(values.back()) + 1 == low) {
        values.back() = low;  // extends the last run
      } else {
        values.push_back(low);
        values.push_back(low);
      }
      break;
  }
  ++cardinality;
}

uint16_t SidContainer::LastLow() const {
  switch (kind) {
    case Kind::kArray:
    case Kind::kRun:
      return values.back();
    case Kind::kBitmap:
      for (size_t wi = words.size(); wi-- > 0;) {
        if (words[wi] != 0) {
          return static_cast<uint16_t>(wi * 64 + 63 -
                                       __builtin_clzll(words[wi]));
        }
      }
      break;
  }
  return 0;
}

void SidContainer::Normalize() {
  if (cardinality == 0) {
    kind = Kind::kArray;
    values.clear();
    words.clear();
    return;
  }
  const uint32_t runs = NumRuns(*this);
  const size_t array_bytes = cardinality <= kArrayBitmapCrossover
                                 ? cardinality * sizeof(uint16_t)
                                 : static_cast<size_t>(-1);
  const size_t run_bytes = runs * 2 * sizeof(uint16_t);
  const size_t bitmap_bytes = kContainerWords * sizeof(uint64_t);

  if (array_bytes <= run_bytes && array_bytes <= bitmap_bytes) {
    if (kind != Kind::kArray) {
      std::vector<uint16_t> lows;
      lows.reserve(cardinality);
      ForEachLow([&](uint16_t v) { lows.push_back(v); });
      values = std::move(lows);
      words.clear();
      words.shrink_to_fit();
      kind = Kind::kArray;
    } else {
      values.shrink_to_fit();
    }
    return;
  }
  if (run_bytes <= bitmap_bytes) {
    if (kind == Kind::kRun) {
      values.shrink_to_fit();
      return;
    }
    std::vector<uint16_t> pairs;
    pairs.reserve(runs * 2);
    bool open = false;
    uint16_t prev = 0;
    ForEachLow([&](uint16_t v) {
      if (!open || v != static_cast<uint16_t>(prev + 1) || v == 0) {
        if (open) pairs.push_back(prev);
        pairs.push_back(v);
        open = true;
      }
      prev = v;
    });
    if (open) pairs.push_back(prev);
    values = std::move(pairs);
    words.clear();
    words.shrink_to_fit();
    kind = Kind::kRun;
    return;
  }
  ConvertToBitmap();
}

SidList SidList::FromSorted(std::span<const Sid> sids) {
  SidList out;
  for (Sid s : sids) out.Append(s);
  out.Normalize();
  return out;
}

size_t SidList::ByteSize() const {
  size_t bytes = sizeof(SidList) +
                 containers_.capacity() * sizeof(SidContainer);
  for (const SidContainer& c : containers_) {
    bytes += c.ByteSize() - sizeof(SidContainer);
  }
  return bytes;
}

bool SidList::Contains(Sid sid) const {
  const uint16_t key = static_cast<uint16_t>(sid >> 16);
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const SidContainer& c, uint16_t k) { return c.key < k; });
  if (it == containers_.end() || it->key != key) return false;
  return it->Contains(static_cast<uint16_t>(sid & 0xffff));
}

void SidList::Normalize() {
  for (SidContainer& c : containers_) c.Normalize();
}

void SidList::RecomputeMeta() {
  size_ = 0;
  for (const SidContainer& c : containers_) size_ += c.cardinality;
  has_last_ = size_ > 0;
  if (has_last_) {
    const SidContainer& back = containers_.back();
    last_ = (static_cast<Sid>(back.key) << 16) | back.LastLow();
  }
}

std::vector<Sid> SidList::ToVector() const {
  std::vector<Sid> out;
  out.reserve(size_);
  ForEach([&](Sid s) { out.push_back(s); });
  return out;
}

bool SidList::Cursor::LoadWithin() {
  const SidContainer& c = list_->containers_[ci_];
  const Sid base = static_cast<Sid>(c.key) << 16;
  switch (c.kind) {
    case Kind::kArray:
      if (vi_ >= c.values.size()) return false;
      value_ = base | c.values[vi_];
      return true;
    case Kind::kRun:
      while (vi_ * 2 + 1 < c.values.size()) {
        const uint32_t v = static_cast<uint32_t>(c.values[vi_ * 2]) + off_;
        if (v <= c.values[vi_ * 2 + 1]) {
          value_ = base | static_cast<uint16_t>(v);
          return true;
        }
        ++vi_;
        off_ = 0;
      }
      return false;
    case Kind::kBitmap:
      while (word_ == 0) {
        ++wi_;
        if (wi_ >= c.words.size()) return false;
        word_ = c.words[wi_];
      }
      value_ = base | static_cast<uint16_t>(
                          wi_ * 64 + static_cast<size_t>(
                                         __builtin_ctzll(word_)));
      return true;
  }
  return false;
}

void SidList::Cursor::SkipToValid(size_t ci) {
  for (ci_ = ci; ci_ < list_->containers_.size(); ++ci_) {
    const SidContainer& c = list_->containers_[ci_];
    vi_ = 0;
    off_ = 0;
    wi_ = 0;
    word_ = c.kind == Kind::kBitmap && !c.words.empty() ? c.words[0] : 0;
    if (LoadWithin()) return;
  }
}

void SidList::Cursor::Next() {
  const SidContainer& c = list_->containers_[ci_];
  switch (c.kind) {
    case Kind::kArray:
      ++vi_;
      break;
    case Kind::kRun:
      ++off_;
      break;
    case Kind::kBitmap:
      word_ &= word_ - 1;
      break;
  }
  if (LoadWithin()) return;
  SkipToValid(ci_ + 1);
}

bool operator==(const SidList& a, const SidList& b) {
  if (a.size_ != b.size_) return false;
  SidList::Cursor ca = a.cursor(), cb = b.cursor();
  while (ca.valid() && cb.valid()) {
    if (ca.value() != cb.value()) return false;
    ca.Next();
    cb.Next();
  }
  return !ca.valid() && !cb.valid();
}

bool operator==(const SidList& a, const std::vector<Sid>& b) {
  if (a.size_ != b.size()) return false;
  size_t i = 0;
  for (SidList::Cursor c = a.cursor(); c.valid(); c.Next()) {
    if (c.value() != b[i++]) return false;
  }
  return i == b.size();
}

namespace {

// ---------- array × array ----------

#if defined(SOLAP_X86_DISPATCH)
// SSE4.2 STTNI kernel: _mm_cmpestrm compares each u16 of one 8-lane block
// against every u16 of the other in one instruction (the Lemire & Boytsov
// technique). Blocks advance like a merge on their maxima; the tail runs
// scalar. Sids within a list are distinct, so each match emits once.
__attribute__((target("sse4.2"))) void IntersectU16Sttni(
    const uint16_t* a, size_t na, const uint16_t* b, size_t nb, Sid base,
    std::vector<Sid>& out) {
  size_t ia = 0, ib = 0;
  while (ia + 8 <= na && ib + 8 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + ia));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + ib));
    const __m128i mask = _mm_cmpestrm(
        vb, 8, va, 8,
        _SIDD_UWORD_OPS | _SIDD_CMP_EQUAL_ANY | _SIDD_BIT_MASK);
    unsigned r = static_cast<unsigned>(_mm_cvtsi128_si32(mask));
    while (r != 0) {
      const unsigned i = static_cast<unsigned>(__builtin_ctz(r));
      out.push_back(base | a[ia + i]);
      r &= r - 1;
    }
    const uint16_t amax = a[ia + 7], bmax = b[ib + 7];
    if (amax <= bmax) ia += 8;
    if (bmax <= amax) ib += 8;
  }
  while (ia < na && ib < nb) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      out.push_back(base | a[ia]);
      ++ia;
      ++ib;
    }
  }
}
#endif

void IntersectU16Scalar(const uint16_t* a, size_t na, const uint16_t* b,
                        size_t nb, Sid base, std::vector<Sid>& out) {
  size_t ia = 0, ib = 0;
  while (ia < na && ib < nb) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      out.push_back(base | a[ia]);
      ++ia;
      ++ib;
    }
  }
}

// First index in [lo, n) with v[i] >= x (exponential probe + binary search).
size_t GallopLowerBoundU16(const std::vector<uint16_t>& v, size_t lo,
                           uint16_t x) {
  const size_t n = v.size();
  size_t bound = 1;
  while (lo + bound < n && v[lo + bound] < x) bound <<= 1;
  const size_t hi = std::min(lo + bound, n);
  lo = lo + bound / 2;
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<ptrdiff_t>(lo),
                       v.begin() + static_cast<ptrdiff_t>(hi), x) -
      v.begin());
}

void IntersectArrayArray(const SidContainer& a, const SidContainer& b,
                         Sid base, std::vector<Sid>& out,
                         ContainerOpCounts* counts) {
  const SidContainer& small = a.cardinality <= b.cardinality ? a : b;
  const SidContainer& large = a.cardinality <= b.cardinality ? b : a;
  if (small.cardinality * kGallopSizeRatio <= large.cardinality) {
    if (counts != nullptr) ++counts->gallop_ops;
    size_t lo = 0;
    for (uint16_t x : small.values) {
      lo = GallopLowerBoundU16(large.values, lo, x);
      if (lo == large.values.size()) return;
      if (large.values[lo] == x) {
        out.push_back(base | x);
        ++lo;
      }
    }
    return;
  }
  if (counts != nullptr) ++counts->array_ops;
#if defined(SOLAP_X86_DISPATCH)
  if (CpuHasSse42()) {
    IntersectU16Sttni(a.values.data(), a.values.size(), b.values.data(),
                      b.values.size(), base, out);
    return;
  }
#endif
  IntersectU16Scalar(a.values.data(), a.values.size(), b.values.data(),
                     b.values.size(), base, out);
}

// ---------- pairs involving a bitmap ----------

void ExtractWord(uint64_t w, Sid word_base, std::vector<Sid>& out) {
  while (w != 0) {
    out.push_back(word_base +
                  static_cast<Sid>(__builtin_ctzll(w)));
    w &= w - 1;
  }
}

void IntersectBitmapBitmap(const SidContainer& a, const SidContainer& b,
                           Sid base, std::vector<Sid>& out) {
  for (size_t wi = 0; wi < kContainerWords; ++wi) {
    ExtractWord(a.words[wi] & b.words[wi],
                base + static_cast<Sid>(wi * 64), out);
  }
}

void IntersectArrayBitmap(const SidContainer& arr, const SidContainer& bm,
                          Sid base, std::vector<Sid>& out) {
  for (uint16_t v : arr.values) {
    if ((bm.words[v >> 6] >> (v & 63)) & 1) out.push_back(base | v);
  }
}

void IntersectRunBitmap(const SidContainer& run, const SidContainer& bm,
                        Sid base, std::vector<Sid>& out) {
  for (size_t i = 0; i + 1 < run.values.size(); i += 2) {
    const uint32_t s = run.values[i], l = run.values[i + 1];
    for (uint32_t wi = s / 64; wi <= l / 64; ++wi) {
      uint64_t m = bm.words[wi];
      if (wi == s / 64) m &= ~0ull << (s % 64);
      if (wi == l / 64) {
        const uint32_t r = l % 64;
        m &= r == 63 ? ~0ull : ((1ull << (r + 1)) - 1);
      }
      ExtractWord(m, base + static_cast<Sid>(wi * 64), out);
    }
  }
}

// ---------- pairs involving a run ----------

void IntersectRunRun(const SidContainer& a, const SidContainer& b, Sid base,
                     std::vector<Sid>& out) {
  size_t i = 0, j = 0;
  while (i + 1 < a.values.size() && j + 1 < b.values.size()) {
    const uint32_t s = std::max(a.values[i], b.values[j]);
    const uint32_t l = std::min(a.values[i + 1], b.values[j + 1]);
    for (uint32_t v = s; v <= l; ++v) {
      out.push_back(base | static_cast<uint16_t>(v));
    }
    if (a.values[i + 1] <= b.values[j + 1]) {
      i += 2;
    } else {
      j += 2;
    }
  }
}

void IntersectRunArray(const SidContainer& run, const SidContainer& arr,
                       Sid base, std::vector<Sid>& out) {
  size_t ri = 0;
  for (uint16_t v : arr.values) {
    while (ri + 1 < run.values.size() && run.values[ri + 1] < v) ri += 2;
    if (ri + 1 >= run.values.size()) return;
    if (run.values[ri] <= v) out.push_back(base | v);
  }
}

// Per-pair kind dispatch; both containers share `key`.
void IntersectContainers(const SidContainer& a, const SidContainer& b,
                         std::vector<Sid>& out, ContainerOpCounts* counts) {
  const Sid base = static_cast<Sid>(a.key) << 16;
  if (a.kind == Kind::kRun || b.kind == Kind::kRun) {
    if (counts != nullptr) ++counts->run_ops;
    const SidContainer& x = a.kind == Kind::kRun ? a : b;
    const SidContainer& y = a.kind == Kind::kRun ? b : a;
    switch (y.kind) {
      case Kind::kRun:
        IntersectRunRun(x, y, base, out);
        return;
      case Kind::kArray:
        IntersectRunArray(x, y, base, out);
        return;
      case Kind::kBitmap:
        IntersectRunBitmap(x, y, base, out);
        return;
    }
    return;
  }
  if (a.kind == Kind::kBitmap || b.kind == Kind::kBitmap) {
    if (counts != nullptr) ++counts->bitmap_ops;
    if (a.kind == Kind::kBitmap && b.kind == Kind::kBitmap) {
      IntersectBitmapBitmap(a, b, base, out);
    } else if (a.kind == Kind::kArray) {
      IntersectArrayBitmap(a, b, base, out);
    } else {
      IntersectArrayBitmap(b, a, base, out);
    }
    return;
  }
  IntersectArrayArray(a, b, base, out, counts);
}

}  // namespace

void IntersectSidLists(const SidList& a, const SidList& b,
                       std::vector<Sid>& out, ContainerOpCounts* counts) {
  out.clear();
  const std::vector<SidContainer>& ca = a.containers();
  const std::vector<SidContainer>& cb = b.containers();
  size_t i = 0, j = 0;
  while (i < ca.size() && j < cb.size()) {
    if (ca[i].key < cb[j].key) {
      ++i;
    } else if (cb[j].key < ca[i].key) {
      ++j;
    } else {
      IntersectContainers(ca[i], cb[j], out, counts);
      ++i;
      ++j;
    }
  }
}

void IntersectSidListsScalar(const SidList& a, const SidList& b,
                             std::vector<Sid>& out) {
  out.clear();
  SidList::Cursor ca = a.cursor(), cb = b.cursor();
  while (ca.valid() && cb.valid()) {
    const Sid va = ca.value(), vb = cb.value();
    if (va < vb) {
      ca.Next();
    } else if (vb < va) {
      cb.Next();
    } else {
      out.push_back(va);
      ca.Next();
      cb.Next();
    }
  }
}

void IntersectSegmented(const SidList* a_base, const SidList* a_delta,
                        const SidList* b_base, const SidList* b_delta,
                        std::vector<Sid>& out, ContainerOpCounts* counts) {
  out.clear();
  // Four pairwise terms, each sorted; the per-index disjointness makes the
  // final combine a plain k-way merge-dedup of at most four sorted runs.
  const SidList* as[2] = {a_base, a_delta};
  const SidList* bs[2] = {b_base, b_delta};
  std::vector<Sid> terms[4];
  size_t n_terms = 0;
  for (const SidList* a : as) {
    if (a == nullptr || a->size() == 0) continue;
    for (const SidList* b : bs) {
      if (b == nullptr || b->size() == 0) continue;
      std::vector<Sid>& term = terms[n_terms];
      if (a == a_base && b == b_base) {
        // The big×big term gets the container kernels; the delta cross
        // terms are small by construction and a scalar merge wins.
        IntersectSidLists(*a, *b, term, counts);
      } else {
        IntersectSidListsScalar(*a, *b, term);
      }
      if (!term.empty()) ++n_terms;
    }
  }
  if (n_terms == 0) return;
  if (n_terms == 1) {
    out = std::move(terms[0]);
    return;
  }
  size_t idx[4] = {0, 0, 0, 0};
  for (;;) {
    Sid best = 0;
    bool have = false;
    for (size_t t = 0; t < n_terms; ++t) {
      if (idx[t] < terms[t].size() &&
          (!have || terms[t][idx[t]] < best)) {
        best = terms[t][idx[t]];
        have = true;
      }
    }
    if (!have) break;
    out.push_back(best);
    for (size_t t = 0; t < n_terms; ++t) {
      if (idx[t] < terms[t].size() && terms[t][idx[t]] == best) ++idx[t];
    }
  }
}

SidList UnionManySidLists(std::span<const SidList* const> inputs,
                          ContainerOpCounts* counts) {
  SidList out;
  if (inputs.empty()) return out;
  if (inputs.size() == 1) return *inputs[0];

  std::vector<size_t> pos(inputs.size(), 0);
  std::vector<uint64_t> acc;
  for (;;) {
    uint32_t min_key = kContainerSpan;  // > any uint16_t key
    for (size_t n = 0; n < inputs.size(); ++n) {
      const auto& cs = inputs[n]->containers();
      if (pos[n] < cs.size()) {
        min_key = std::min(min_key, static_cast<uint32_t>(cs[pos[n]].key));
      }
    }
    if (min_key == kContainerSpan) break;

    const SidContainer* single = nullptr;
    size_t contributors = 0;
    for (size_t n = 0; n < inputs.size(); ++n) {
      const auto& cs = inputs[n]->containers();
      if (pos[n] < cs.size() && cs[pos[n]].key == min_key) {
        ++contributors;
        single = &cs[pos[n]];
      }
    }
    if (contributors == 1) {
      out.containers().push_back(*single);
    } else {
      acc.assign(kContainerWords, 0);
      for (size_t n = 0; n < inputs.size(); ++n) {
        const auto& cs = inputs[n]->containers();
        if (pos[n] >= cs.size() || cs[pos[n]].key != min_key) continue;
        const SidContainer& c = cs[pos[n]];
        switch (c.kind) {
          case Kind::kArray:
            if (counts != nullptr) ++counts->array_ops;
            for (uint16_t v : c.values) acc[v >> 6] |= 1ull << (v & 63);
            break;
          case Kind::kBitmap:
            if (counts != nullptr) ++counts->bitmap_ops;
            for (size_t wi = 0; wi < kContainerWords; ++wi) {
              acc[wi] |= c.words[wi];
            }
            break;
          case Kind::kRun:
            if (counts != nullptr) ++counts->run_ops;
            for (size_t p = 0; p + 1 < c.values.size(); p += 2) {
              SetWordRange(acc, c.values[p], c.values[p + 1]);
            }
            break;
        }
      }
      SidContainer merged;
      merged.key = static_cast<uint16_t>(min_key);
      merged.kind = Kind::kBitmap;
      uint32_t card = 0;
      for (uint64_t w : acc) {
        card += static_cast<uint32_t>(__builtin_popcountll(w));
      }
      merged.cardinality = card;
      merged.words = acc;
      merged.Normalize();
      out.containers().push_back(std::move(merged));
    }
    for (size_t n = 0; n < inputs.size(); ++n) {
      const auto& cs = inputs[n]->containers();
      if (pos[n] < cs.size() && cs[pos[n]].key == min_key) ++pos[n];
    }
  }
  out.RecomputeMeta();
  return out;
}

}  // namespace solap
