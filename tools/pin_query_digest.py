#!/usr/bin/env python3
"""Pin the e2ebench query loop and digest every answer it produces.

A change to the query read path (the cell-estimate table and its L1 sum, the
dyadic descent) must leave every answer bit-identical. This script patches
a *copy* of a source tree (src/, e2ebench/, CMakeLists.txt and
BENCHMARK.json copied into DIR) so that the `query` workload:

  * runs a fixed number of query intervals instead of a wall-clock loop,
    so both sides answer the same rounds and `error_p99_ratio` repeats;
  * folds the bit pattern of every answer into one FNV-1a digest: each
    PointQueryExact, the heavy-hitter keys and estimates, the quantiles
    and the self-join, then (after the timed round, so the latencies
    stay the workload's) a PointQueryBatchAt over the watch list at the
    round's range, small batches at two other ranges (one cold, one
    after an EstimateL1 there) and a RangeQuery;
  * prints `DIGEST <hex> rounds <n>` to stderr when it finishes.

Usage (run it on a copy of each side, then compare the DIGEST lines):

    python3 tools/pin_query_digest.py DIR [--intervals 40]
    (cd DIR && python3 e2ebench/run.py --workload query --seed 1 \\
        --seconds 1 2>&1 | grep -E 'DIGEST|error_p99_ratio ')

Never run it on the checkout itself: it rewrites DIR/e2ebench/pipeline.cc.
"""

import argparse
import os
import sys


def patch(text, intervals):
    start = text.index("class QueryStage final")
    head, stage = text[:start], text[start:]

    def rep(old, new):
        nonlocal stage
        if old not in stage:
            sys.exit("pin_query_digest: pattern not found:\n" + old)
        stage = stage.replace(old, new, 1)

    rep("""    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {""",
        """    (void)seconds;
    for (int interval = 0; interval < kPinnedIntervals; ++interval) {""")
    rep("""        sink_ += engine_->PointQueryExact(key, range, &exact);""",
        """        const double v = engine_->PointQueryExact(key, range, &exact);
        sink_ += v;
        Mix(v);""")
    rep("""      sink_ += static_cast<double>(dy.HeavyHitters(kHeavyPhi, range).size());""",
        """      const auto hh = dy.HeavyHitters(kHeavyPhi, range);
      sink_ += static_cast<double>(hh.size());
      Mix(static_cast<double>(hh.size()));
      for (const auto& h : hh) {
        Mix(static_cast<double>(h.key));
        Mix(h.estimate);
      }""")
    rep("""        sink_ += static_cast<double>(dy.Quantile(q, range));""",
        """        const double v = static_cast<double>(dy.Quantile(q, range));
        sink_ += v;
        Mix(v);""")
    rep("""      sink_ += engine_->SelfJoin(range);
    }
    selfjoin_.Add(static_cast<double>(NowNs() - t0) / 1e3);""",
        """      const double v = engine_->SelfJoin(range);
      sink_ += v;
      Mix(v);
    }
    selfjoin_.Add(static_cast<double>(NowNs() - t0) / 1e3);
    {
      const Sketch& sk = engine_->sketch();
      const size_t few = std::min<size_t>(8, watch_.size());
      std::vector<double> est(watch_.size());
      sk.PointQueryBatchAt(watch_.data(), watch_.size(), range, sk.Now(),
                           est.data());
      for (double v : est) Mix(v);
      sk.PointQueryBatchAt(watch_.data(), few, range / 3 + 1, sk.Now(),
                           est.data());
      for (size_t i = 0; i < few; ++i) Mix(est[i]);
      Mix(dy.EstimateL1(range / 2 + 1));
      sk.PointQueryBatchAt(watch_.data(), few, range / 2 + 1, sk.Now(),
                           est.data());
      for (size_t i = 0; i < few; ++i) Mix(est[i]);
      Mix(dy.RangeQuery(0, 1000, range));
      ++digest_rounds_;
    }""")
    rep("""  void Finish(StageResult* out) override {""",
        """  void Mix(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    digest_ = (digest_ ^ b) * 1099511628211ULL;
  }
  uint64_t digest_ = 1469598103934665603ULL;
  uint64_t digest_rounds_ = 0;
  static constexpr int kPinnedIntervals = %d;

  void Finish(StageResult* out) override {
    std::fprintf(stderr, "DIGEST %%016llx rounds %%llu\\n",
                 static_cast<unsigned long long>(digest_),
                 static_cast<unsigned long long>(digest_rounds_));""" % intervals)
    text = head + stage
    return text.replace("#include <cstdio>", "#include <cstdio>\n#include <cstring>", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", help="copy of the source tree to patch")
    parser.add_argument("--intervals", type=int, default=40)
    args = parser.parse_args()
    path = os.path.join(args.dir, "e2ebench", "pipeline.cc")
    if os.path.exists(os.path.join(args.dir, ".git")):
        sys.exit("pin_query_digest: refusing to patch a git checkout")
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(patch(text, args.intervals))


if __name__ == "__main__":
    main()
