#include "solap/engine/advisor.h"

#include <algorithm>
#include <unordered_map>

#include "solap/index/build_index.h"

namespace solap {

std::string IndexRecommendation::ToString() const {
  return shape.CanonicalString() + " benefit=" + std::to_string(benefit) +
         " bytes~" + std::to_string(estimated_bytes);
}

namespace {

struct Candidate {
  SequenceSpec formation;
  IndexShape shape;
  double benefit = 0;
};

std::string KeyOf(const SequenceSpec& formation, const IndexShape& shape) {
  return formation.CanonicalString() + "|" + shape.CanonicalString();
}

}  // namespace

Result<std::vector<IndexRecommendation>> MaterializationAdvisor::Recommend(
    const std::vector<WorkloadQuery>& workload, size_t budget_bytes) {
  std::unordered_map<std::string, Candidate> candidates;

  for (const WorkloadQuery& wq : workload) {
    if (wq.spec.is_regex()) continue;  // regex queries are scan-based
    SOLAP_ASSIGN_OR_RETURN(PatternTemplate tmpl, wq.spec.MakeTemplate());
    SOLAP_ASSIGN_OR_RETURN(std::shared_ptr<SequenceGroupSet> groups,
                           engine_->GroupsFor(wq.spec.seq));
    const double n = static_cast<double>(groups->total_sequences());
    const size_t m = tmpl.num_positions();

    auto add = [&](IndexShape shape, double benefit) {
      std::string key = KeyOf(wq.spec.seq, shape);
      auto it = candidates.find(key);
      if (it == candidates.end()) {
        candidates.emplace(
            key, Candidate{wq.spec.seq, std::move(shape), benefit});
      } else {
        it->second.benefit += benefit;
      }
    };

    if (m == 1) {
      IndexShape shape;
      shape.kind = tmpl.kind();
      shape.positions = {tmpl.dim(tmpl.dim_of(0)).ref};
      add(std::move(shape), wq.weight * n);
      continue;
    }
    // Every size-2 window: having it avoids one full BuildIndex scan.
    for (size_t off = 0; off + 2 <= m; ++off) {
      IndexShape shape;
      shape.kind = tmpl.kind();
      shape.positions = {tmpl.dim(tmpl.dim_of(off)).ref,
                         tmpl.dim(tmpl.dim_of(off + 1)).ref};
      add(std::move(shape), wq.weight * n);
    }
    // The full-length shape (short templates only): answers the query with
    // no joins at all, saving roughly the join pipeline's scans.
    if (m >= 3 && m <= 4) {
      IndexShape shape;
      shape.kind = tmpl.kind();
      for (size_t pos = 0; pos < m; ++pos) {
        shape.positions.push_back(tmpl.dim(tmpl.dim_of(pos)).ref);
      }
      add(std::move(shape), wq.weight * n * static_cast<double>(m - 1));
    }
  }

  // Estimate footprints by building each candidate over a sample of each
  // group and extrapolating entries linearly.
  std::vector<IndexRecommendation> ranked;
  for (auto& [key, cand] : candidates) {
    SOLAP_ASSIGN_OR_RETURN(std::shared_ptr<SequenceGroupSet> groups,
                           engine_->GroupsFor(cand.formation));
    // Skip candidates the engine already holds (first group as proxy).
    if (!groups->groups().empty()) {
      auto cache = engine_->FindIndexCache(*groups, 0);
      if (cache != nullptr && cache->Find(cand.shape, "") != nullptr) {
        continue;
      }
    }
    size_t bytes = 0;
    for (SequenceGroup& group : groups->groups()) {
      const size_t total = group.num_sequences();
      if (total == 0) continue;
      const size_t k = std::min(sample_sequences_, total);
      SequenceGroup sample(group.table());
      for (Sid s = 0; s < k; ++s) sample.AddSequence(group.Rows(s));
      ScanStats scratch;
      SOLAP_ASSIGN_OR_RETURN(
          std::shared_ptr<InvertedIndex> built,
          BuildIndex(&sample, *groups, engine_->hierarchies(), cand.shape,
                     &scratch));
      // Posting payload scales with the sequence count, but the per-list
      // container and struct overhead scales with the number of distinct
      // patterns — which a vocabulary-bounded sample has largely saturated.
      // Scaling the whole ByteSize linearly overshot small samples ~4x.
      const size_t size_bytes = built->ByteSize();
      const size_t payload =
          built->total_entries() * sizeof(uint16_t);  // array-container lows
      const size_t overhead = size_bytes > payload ? size_bytes - payload : 0;
      bytes += payload * total / k + overhead;
    }
    ranked.push_back(IndexRecommendation{cand.formation, cand.shape,
                                         cand.benefit, bytes});
  }

  // Greedy knapsack by benefit per byte.
  std::sort(ranked.begin(), ranked.end(),
            [](const IndexRecommendation& a, const IndexRecommendation& b) {
              double da = a.benefit / static_cast<double>(
                                          std::max<size_t>(a.estimated_bytes, 1));
              double db = b.benefit / static_cast<double>(
                                          std::max<size_t>(b.estimated_bytes, 1));
              if (da != db) return da > db;
              return a.shape.CanonicalString() < b.shape.CanonicalString();
            });
  std::vector<IndexRecommendation> chosen;
  size_t used = 0;
  for (IndexRecommendation& rec : ranked) {
    if (used + rec.estimated_bytes > budget_bytes) continue;
    used += rec.estimated_bytes;
    chosen.push_back(std::move(rec));
  }
  return chosen;
}

Status MaterializationAdvisor::Materialize(
    const std::vector<IndexRecommendation>& recs) {
  for (const IndexRecommendation& rec : recs) {
    SOLAP_RETURN_NOT_OK(engine_->MaterializeIndex(rec.formation, rec.shape));
  }
  return Status::OK();
}

}  // namespace solap
