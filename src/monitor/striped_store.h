// The retention store: the paper's a-posteriori policy (monitor/store.h),
// thread-safe and mutex-striped.
//
// The fleet engine drives hundreds of metric-device pairs concurrently and
// every pair ingests its reconstruction into shared retention. A single
// store behind one mutex would serialize the fan-in, so streams are
// partitioned across S independent stripes by a stable hash of the stream
// name; each stripe has its own lock and unrelated streams ingest in
// parallel. The final store state is independent of thread interleaving
// because every stream is written by exactly one producer and stripe
// assignment depends only on the name.
//
// A stripe's streams, and the seal that re-samples a full hot chunk at its
// Nyquist rate, are private to monitor/store.cc: each method below locks
// one stripe (or each in turn) and acts on the stream directly. Reads go
// through one path: query() and snapshot_stream() capture the stream under
// its stripe lock and then read the capture like any ReadSnapshot.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "monitor/store.h"

namespace nyqmon::mon {

class StripedRetentionStore {
 public:
  explicit StripedRetentionStore(StoreConfig config = {},
                                 std::size_t stripes = 16);
  ~StripedRetentionStore();
  StripedRetentionStore(StripedRetentionStore&&) noexcept;
  StripedRetentionStore& operator=(StripedRetentionStore&&) noexcept;

  /// Create a stream ingesting at `collection_rate_hz` starting at t0.
  /// Stream names must be unique; the rate must be finite and > 0 and t0
  /// finite.
  void create_stream(const std::string& name, double collection_rate_hz,
                     double t0 = 0.0);
  /// create_stream() unless `name` already exists, as one step under the
  /// stripe lock: concurrent first ingests of one new stream all succeed
  /// (nyqmond's reactors race exactly this), and exactly one creates it.
  void find_or_create_stream(const std::string& name,
                             double collection_rate_hz, double t0 = 0.0);
  /// Append the next reading of a stream (readings arrive in grid order).
  void append(const std::string& name, double value);
  /// Bulk ingest: one lock acquisition for the whole series.
  void append_series(const std::string& name, std::span<const double> values);

  /// Reconstruct [t_begin, t_end) on the stream's collection grid (see
  /// ReadSnapshot::query for the range contract). Unknown names throw
  /// std::invalid_argument.
  sig::RegularSeries query(const std::string& name, double t_begin,
                           double t_end) const;
  StreamStats stats(const std::string& name) const;

  /// Grid/span/generation metadata for one stream (see StreamMeta).
  StreamMeta meta(const std::string& name) const;

  /// meta() that reports an unknown name as nullopt instead of throwing.
  std::optional<StreamMeta> find_meta(const std::string& name) const;

  /// Metadata for every stream whose name starts with `prefix` (every
  /// stream for an empty prefix) across stripes, lexicographically sorted
  /// by name. The serving layer's selector match + prune pass, called with
  /// a glob's literal prefix (qry::glob_prefix). Stripes hash names, so
  /// every stripe lock is taken in turn, but each stripe only seeks its
  /// name map to the prefix and walks that key range before the per-stripe
  /// runs are merged: O(stripes * log streams + matches). The result is
  /// per-stripe (not globally) atomic under concurrent ingest.
  std::vector<std::pair<std::string, StreamMeta>> list_meta(
      std::string_view prefix = {}) const;

  /// All stream names across stripes, lexicographically sorted.
  std::vector<std::string> stream_names() const;

  /// Aggregate ingest/retention counters across every stripe.
  StoreRollup rollup() const;

  /// Storage bill for everything currently persisted (sealed + hot).
  Cost storage_cost() const;

  std::size_t streams() const;
  std::size_t stripes() const { return stripes_.size(); }

  /// The store configuration every stripe seals by.
  const StoreConfig& config() const;

  /// Attach a durability sink to every stripe (nullptr detaches). Every
  /// subsequent create_stream/append goes through the sink *before* the
  /// store mutates, under the owning stripe's lock and from whichever
  /// thread ingests — it must be thread-safe. restore_stream never
  /// notifies: recovery must not re-log itself.
  void set_ingest_sink(IngestSink* sink);

  /// Externalize one stream's state, omitting the first `skip_chunks`
  /// sealed chunks (see ReadSnapshot::export_stream).
  StreamSnapshot snapshot_stream(const std::string& name,
                                 std::size_t skip_chunks = 0) const;

  /// Recreate a stream from a full snapshot (chunks_before must be 0 and
  /// the name unused). Queries against the restored stream are
  /// bit-identical to the store the snapshot was taken from, and its
  /// generation counter continues monotonically. A snapshot restore_defect
  /// refuses throws std::invalid_argument and leaves the store unchanged.
  void restore_stream(StreamSnapshot snapshot);

  /// Acquire an immutable, epoch-stamped view over every stream (see
  /// ReadSnapshot in monitor/store.h). Capture takes each stripe lock in
  /// turn — per-stripe (not globally) atomic under concurrent ingest, the
  /// same consistency list_meta() offers — and pins one epoch in the
  /// store-wide registry; every read on the handle afterwards is
  /// lock-free. This is the read path the query engine, HANDOFF export,
  /// and the storage flush use so reconstruction never blocks ingest.
  ReadSnapshot acquire_snapshot() const;

  /// Snapshot covering only `names` (unknown names are skipped). Stripes
  /// that own none of the names are not locked at all.
  ReadSnapshot acquire_snapshot(std::span<const std::string> names) const;

  /// The epoch registry shared by every stripe (snapshot lifetime and
  /// deferred-reclamation introspection; tests and metrics).
  const std::shared_ptr<EpochRegistry>& epoch_registry() const {
    return epochs_;
  }

 private:
  struct Stripe;  ///< a lock plus its streams; defined in store.cc

  Stripe& stripe_of(const std::string& name) const;

  /// One registry across all stripes so a fleet snapshot pins one epoch.
  std::shared_ptr<EpochRegistry> epochs_ = std::make_shared<EpochRegistry>();
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace nyqmon::mon
