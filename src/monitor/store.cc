#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

#include "dsp/resample.h"
#include "monitor/striped_store.h"
#include "obs/metrics.h"
#include "storage/codec.h"
#include "util/check.h"
#include "util/hash.h"

namespace nyqmon::mon {

namespace {

StreamMeta make_meta(double rate_hz, double t0, std::size_t ingested,
                     std::uint64_t generation) {
  StreamMeta m;
  m.collection_rate_hz = rate_hz;
  m.t0 = t0;
  m.t_end = t0 + static_cast<double>(ingested) / rate_hz;
  m.generation = generation;
  m.ingested_samples = ingested;
  return m;
}

/// Why `chunk` cannot follow `prev` (nullptr for a stream's first chunk)
/// among the sealed chunks of a stream collected at `rate_hz` (see
/// restore_defect), or nullptr.
const char* chunk_defect(const ChunkSnapshot& chunk, const ChunkSnapshot* prev,
                         double rate_hz) {
  if (chunk.values.empty()) return "empty chunk";
  const double end =
      chunk.t0 + chunk.dt * static_cast<double>(chunk.values.size());
  if (!std::isfinite(chunk.t0) || !std::isfinite(chunk.dt) ||
      !std::isfinite(end))
    return "non-finite chunk grid";
  if (!(chunk.dt > 0.0)) return "chunk dt <= 0";
  // A read densifies a chunk onto every collection-grid point it spans.
  if (!((end - chunk.t0) * rate_hz <=
        static_cast<double>(kMaxChunkSamples) + 1.0))
    return "chunk spans more grid points than any chunk size";
  if (prev == nullptr) return nullptr;
  const double prev_end =
      prev->t0 + prev->dt * static_cast<double>(prev->values.size());
  // The seal path's own rounding can leave a chunk's end a few ulps past
  // its successor's start; anything beyond that is an overlap.
  const double tolerance = std::max(
      1e-9, 4.0 * std::numeric_limits<double>::epsilon() * std::abs(prev_end));
  if (chunk.t0 < prev->t0 || end < prev_end ||
      chunk.t0 < prev_end - tolerance)
    return "chunk out of order or overlapping its predecessor";
  return nullptr;
}

/// Every stripe acquisition funnels through here so lock contention is
/// measurable without a profiler. The uncontended fast path is a try_lock
/// plus one counter bump; only a blocked acquisition pays for timestamps.
/// All three instruments register together on first use, so the exposition
/// shows zeroed contention series even on an uncontended run.
std::unique_lock<std::mutex> lock_stripe(std::mutex& mu) {
#if defined(NYQMON_OBS_NOOP)
  return std::unique_lock<std::mutex>(mu);
#else
  static obs::Counter& acquisitions = obs::Registry::instance().counter(
      "nyqmon_store_lock_acquisitions_total");
  static obs::Counter& contended =
      obs::Registry::instance().counter("nyqmon_store_lock_contended_total");
  static obs::Histogram& wait =
      obs::Registry::instance().histogram("nyqmon_store_lock_wait_ns");
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  acquisitions.add(1);
  if (!lock.owns_lock()) {
    contended.add(1);
    const auto t0 = std::chrono::steady_clock::now();
    lock.lock();
    wait.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return lock;
#endif
}

/// Sort `v`, which holds one sorted run per stripe ending at each of
/// `bounds` (after a leading 0), by cascading inplace_merge over the run
/// boundaries: O(n log stripes) instead of a re-sort, since it sits on the
/// serving hot path once per query.
template <typename T, typename Less>
void merge_sorted_runs(std::vector<T>& v, std::vector<std::size_t> bounds,
                       Less less) {
  while (bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    for (std::size_t i = 2; i < bounds.size(); i += 2) {
      std::inplace_merge(v.begin() + bounds[i - 2], v.begin() + bounds[i - 1],
                         v.begin() + bounds[i], less);
      next.push_back(bounds[i]);
    }
    if (bounds.size() % 2 == 0) next.push_back(bounds.back());
    bounds = std::move(next);
  }
}

const auto by_view_name = [](const StreamView& a, const StreamView& b) {
  return a.name < b.name;
};

/// One stream's live state inside its stripe.
struct Stream {
  double collection_rate_hz = 0.0;
  double t0 = 0.0;
  std::size_t ingested = 0;
  std::vector<double> hot;  ///< unsealed tail, at the collection rate
  double hot_t0 = 0.0;
  std::vector<SealedChunkRef> chunks;
  std::size_t chunks_trimmed = 0;  ///< evicted by the retention cap
  StreamStats stats;
  std::uint64_t generation = 0;  ///< bumped per non-empty append batch

  StreamMeta meta() const {
    return make_meta(collection_rate_hz, t0, ingested, generation);
  }
};

/// The one capture: what every snapshot, and so every read and export,
/// sees of a stream.
StreamView capture(const std::string& name, const Stream& s) {
  StreamView v;
  v.name = name;
  v.collection_rate_hz = s.collection_rate_hz;
  v.t0 = s.t0;
  v.hot_t0 = s.hot_t0;
  v.generation = s.generation;
  v.ingested = s.ingested;
  v.chunks_trimmed = s.chunks_trimmed;
  v.chunks = s.chunks;  // shared refs — the cheap part of the capture
  v.hot = s.hot;        // copied — the tail keeps mutating under ingest
  v.stats = s.stats;
  return v;
}

}  // namespace

StoreRollup& StoreRollup::operator+=(const StoreRollup& other) {
  streams += other.streams;
  ingested_samples += other.ingested_samples;
  sealed_ingested_samples += other.sealed_ingested_samples;
  stored_samples += other.stored_samples;
  chunks += other.chunks;
  chunks_reduced += other.chunks_reduced;
  bytes_raw += other.bytes_raw;
  bytes_stored += other.bytes_stored;
  return *this;
}

std::size_t drop_defective_chunks(std::vector<ChunkSnapshot>& chunks,
                                  double collection_rate_hz) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunk_defect(chunks[i], kept == 0 ? nullptr : &chunks[kept - 1],
                     collection_rate_hz))
      continue;
    if (kept != i) chunks[kept] = std::move(chunks[i]);
    ++kept;
  }
  const std::size_t dropped = chunks.size() - kept;
  chunks.resize(kept);
  return dropped;
}

std::string restore_defect(const StreamSnapshot& snapshot) {
  if (!(snapshot.collection_rate_hz > 0.0) ||
      !std::isfinite(snapshot.collection_rate_hz))
    return "collection rate must be finite and > 0";
  if (!std::isfinite(snapshot.t0) || !std::isfinite(snapshot.hot_t0))
    return "non-finite stream origin";
  if (snapshot.chunks_before != 0) return "restore needs a full snapshot";
  for (std::size_t i = 0; i < snapshot.chunks.size(); ++i)
    if (const char* defect = chunk_defect(
            snapshot.chunks[i], i == 0 ? nullptr : &snapshot.chunks[i - 1],
            snapshot.collection_rate_hz))
      return "chunk " + std::to_string(i) + ": " + defect;
  return {};
}

// ---- the stripe: a lock, its streams, and the a-posteriori seal ----

struct StripedRetentionStore::Stripe {
  Stripe(const StoreConfig& c, EpochRegistry& e) : config(c), epochs(e) {}

  const StoreConfig config;
  /// The store-wide registry: evicted chunks park here behind live
  /// snapshots.
  EpochRegistry& epochs;
  std::mutex mu;
  /// Transparent comparator: list_meta seeks with a string_view prefix.
  std::map<std::string, Stream, std::less<>> streams;
  IngestSink* sink = nullptr;

  Stream& stream(const std::string& name) {
    const auto it = streams.find(name);
    NYQMON_CHECK_MSG(it != streams.end(), "unknown stream: " + name);
    return it->second;
  }

  void create(const std::string& name, double collection_rate_hz,
              double t0) {
    // A finite grid is what restore_defect will demand of this stream's
    // flushed image, so a stream that could not be recovered is never made.
    NYQMON_CHECK(collection_rate_hz > 0.0 &&
                 std::isfinite(collection_rate_hz));
    NYQMON_CHECK(std::isfinite(t0));
    NYQMON_CHECK_MSG(streams.find(name) == streams.end(),
                     "stream already exists: " + name);
    if (sink != nullptr) sink->on_create_stream(name, collection_rate_hz, t0);
    Stream s;
    s.collection_rate_hz = collection_rate_hz;
    s.t0 = t0;
    s.hot_t0 = t0;
    streams.emplace(name, std::move(s));
  }

  void append(const std::string& name, std::span<const double> values) {
    Stream& s = stream(name);
    if (values.empty()) return;
    // Write-ahead: the sink logs the batch before any in-memory mutation,
    // so a crash mid-batch replays to a state at or before this append.
    if (sink != nullptr) sink->on_append(name, values);
    ++s.generation;
    for (const double value : values) {
      s.hot.push_back(value);
      ++s.ingested;
      ++s.stats.ingested_samples;
      s.stats.bytes_raw += sizeof(double);
      s.stats.bytes_stored += sizeof(double);  // tail held raw until sealed
      if (s.hot.size() >= config.chunk_samples) seal(s);
    }
  }

  void seal(Stream& s) {
    NYQMON_ENSURE(!s.hot.empty());
    const double raw_dt = 1.0 / s.collection_rate_hz;

    SealedChunk chunk;
    chunk.t0 = s.hot_t0;
    chunk.dt = raw_dt;
    chunk.values = s.hot;

    // A-posteriori re-sampling: estimate the chunk's Nyquist rate and keep
    // only headroom * that rate when it undercuts the collection rate.
    const nyq::NyquistEstimator estimator(config.estimator);
    const auto est = estimator.estimate(s.hot, s.collection_rate_hz);
    if (est.ok()) {
      const double keep_rate = std::min(
          s.collection_rate_hz, config.headroom * est.nyquist_rate_hz);
      const auto n_keep = static_cast<std::size_t>(std::max(
          2.0, std::ceil(static_cast<double>(s.hot.size()) * keep_rate /
                         s.collection_rate_hz)));
      if (n_keep < s.hot.size()) {
        chunk.values = dsp::resample_fourier(s.hot, n_keep);
        chunk.dt = raw_dt * static_cast<double>(s.hot.size()) /
                   static_cast<double>(n_keep);
        ++s.stats.chunks_reduced;
      }
    }

    // Byte accounting: the sealed samples leave the raw tail tier and land
    // on disk (at flush) codec-encoded plus fixed per-chunk framing.
    s.stats.bytes_stored -= sizeof(double) * s.hot.size();
    s.stats.bytes_stored +=
        sto::xor_encoded_size(chunk.values) + sto::kChunkDiskOverheadBytes;

    s.stats.sealed_ingested_samples += s.hot.size();
    s.stats.stored_samples += chunk.values.size();
    ++s.stats.chunks;
    s.hot_t0 += raw_dt * static_cast<double>(s.hot.size());
    s.hot.clear();
    s.chunks.push_back(std::make_shared<const SealedChunk>(std::move(chunk)));

    // Retention cap: evict the oldest sealed chunks from memory, parking
    // them in the epoch registry so a live snapshot acquired before this
    // seal can still read through its captured references. The eviction
    // is memory-side only — the chunk stays durable in flushed segments
    // and stats keep their cumulative view.
    if (config.max_chunks_per_stream > 0) {
      while (s.chunks.size() > config.max_chunks_per_stream) {
        epochs.retire(std::move(s.chunks.front()));
        s.chunks.erase(s.chunks.begin());
        ++s.chunks_trimmed;
        NYQMON_OBS_COUNT("nyqmon_store_chunks_trimmed_total", 1);
      }
    }
  }

  void restore(StreamSnapshot snapshot) {
    const std::string defect = restore_defect(snapshot);
    NYQMON_CHECK_MSG(defect.empty(), snapshot.name + ": " + defect);
    NYQMON_CHECK_MSG(streams.find(snapshot.name) == streams.end(),
                     "stream already exists: " + snapshot.name);
    Stream s;
    s.collection_rate_hz = snapshot.collection_rate_hz;
    s.t0 = snapshot.t0;
    s.hot_t0 = snapshot.hot_t0;
    s.ingested = snapshot.stats.ingested_samples;
    s.hot = std::move(snapshot.hot);
    s.chunks.reserve(snapshot.chunks.size());
    for (auto& c : snapshot.chunks)
      s.chunks.push_back(std::make_shared<const SealedChunk>(
          SealedChunk{c.t0, c.dt, std::move(c.values)}));
    s.stats = snapshot.stats;
    s.generation = snapshot.generation;
    streams.emplace(std::move(snapshot.name), std::move(s));
  }
};

// ---- the store ----

StripedRetentionStore::StripedRetentionStore(StoreConfig config,
                                             std::size_t stripes) {
  NYQMON_CHECK(config.chunk_samples >= 32 &&
               config.chunk_samples <= kMaxChunkSamples);
  NYQMON_CHECK(config.headroom >= 1.0);
  NYQMON_CHECK(stripes >= 1);
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i)
    stripes_.push_back(std::make_unique<Stripe>(config, *epochs_));
}

StripedRetentionStore::~StripedRetentionStore() = default;
StripedRetentionStore::StripedRetentionStore(
    StripedRetentionStore&&) noexcept = default;
StripedRetentionStore& StripedRetentionStore::operator=(
    StripedRetentionStore&&) noexcept = default;

StripedRetentionStore::Stripe& StripedRetentionStore::stripe_of(
    const std::string& name) const {
  return *stripes_[fnv1a(name) % stripes_.size()];
}

void StripedRetentionStore::create_stream(const std::string& name,
                                          double collection_rate_hz,
                                          double t0) {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  s.create(name, collection_rate_hz, t0);
}

void StripedRetentionStore::find_or_create_stream(const std::string& name,
                                                  double collection_rate_hz,
                                                  double t0) {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  if (!s.streams.contains(name)) s.create(name, collection_rate_hz, t0);
}

void StripedRetentionStore::append(const std::string& name, double value) {
  append_series(name, std::span<const double>(&value, 1));
}

void StripedRetentionStore::append_series(const std::string& name,
                                          std::span<const double> values) {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  s.append(name, values);
  // Each append advances the stream's generation, invalidating cached
  // query results that covered it — churn here is churn in the cache.
  NYQMON_OBS_COUNT("nyqmon_store_appends_total", 1);
  NYQMON_OBS_COUNT("nyqmon_store_generation_bumps_total", 1);
}

sig::RegularSeries StripedRetentionStore::query(const std::string& name,
                                                double t_begin,
                                                double t_end) const {
  return acquire_snapshot(std::span<const std::string>(&name, 1))
      .query(name, t_begin, t_end);
}

StreamStats StripedRetentionStore::stats(const std::string& name) const {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  return s.stream(name).stats;
}

StreamMeta StripedRetentionStore::meta(const std::string& name) const {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  return s.stream(name).meta();
}

std::optional<StreamMeta> StripedRetentionStore::find_meta(
    const std::string& name) const {
  Stripe& s = stripe_of(name);
  const auto lock = lock_stripe(s.mu);
  const auto it = s.streams.find(name);
  if (it == s.streams.end()) return std::nullopt;
  return it->second.meta();
}

std::vector<std::pair<std::string, StreamMeta>>
StripedRetentionStore::list_meta(std::string_view prefix) const {
  std::vector<std::pair<std::string, StreamMeta>> all;
  std::vector<std::size_t> bounds{0};
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    for (auto it = stripe->streams.lower_bound(prefix);
         it != stripe->streams.end() && it->first.starts_with(prefix); ++it)
      all.emplace_back(it->first, it->second.meta());
    bounds.push_back(all.size());
  }
  merge_sorted_runs(all, std::move(bounds), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return all;
}

std::vector<std::string> StripedRetentionStore::stream_names() const {
  std::vector<std::string> names;
  std::vector<std::size_t> bounds{0};
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    for (const auto& [name, s] : stripe->streams) names.push_back(name);
    bounds.push_back(names.size());
  }
  merge_sorted_runs(names, std::move(bounds), std::less<>());
  return names;
}

StoreRollup StripedRetentionStore::rollup() const {
  StoreRollup total;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    total.streams += stripe->streams.size();
    for (const auto& [name, s] : stripe->streams) {
      total.ingested_samples += s.stats.ingested_samples;
      total.sealed_ingested_samples += s.stats.sealed_ingested_samples;
      total.stored_samples += s.stats.stored_samples;
      total.chunks += s.stats.chunks;
      total.chunks_reduced += s.stats.chunks_reduced;
      total.bytes_raw += s.stats.bytes_raw;
      total.bytes_stored += s.stats.bytes_stored;
    }
  }
  return total;
}

Cost StripedRetentionStore::storage_cost() const {
  Cost total;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    std::size_t samples = 0;
    for (const auto& [name, s] : stripe->streams) {
      samples += s.hot.size();
      for (const auto& chunk : s.chunks) samples += chunk->values.size();
    }
    total += cost_of_samples(samples, stripe->config.cost);
  }
  return total;
}

std::size_t StripedRetentionStore::streams() const {
  std::size_t n = 0;
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    n += stripe->streams.size();
  }
  return n;
}

const StoreConfig& StripedRetentionStore::config() const {
  return stripes_.front()->config;
}

void StripedRetentionStore::set_ingest_sink(IngestSink* sink) {
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    stripe->sink = sink;
  }
}

StreamSnapshot StripedRetentionStore::snapshot_stream(
    const std::string& name, std::size_t skip_chunks) const {
  return acquire_snapshot(std::span<const std::string>(&name, 1))
      .export_stream(name, skip_chunks);
}

void StripedRetentionStore::restore_stream(StreamSnapshot snapshot) {
  Stripe& s = stripe_of(snapshot.name);
  const auto lock = lock_stripe(s.mu);
  s.restore(std::move(snapshot));
}

ReadSnapshot StripedRetentionStore::acquire_snapshot() const {
  // Capture per stripe under its lock (brief: chunk refs + hot copies),
  // pin one epoch for the composed view. Each stripe's map yields its
  // streams name-sorted; merging the runs keeps ReadSnapshot::find's
  // binary-search invariant.
  std::vector<StreamView> views;
  std::vector<std::size_t> bounds{0};
  for (const auto& stripe : stripes_) {
    const auto lock = lock_stripe(stripe->mu);
    for (const auto& [name, s] : stripe->streams)
      views.push_back(capture(name, s));
    bounds.push_back(views.size());
  }
  merge_sorted_runs(views, std::move(bounds), by_view_name);
  return ReadSnapshot(epochs_, epochs_->pin(), std::move(views));
}

ReadSnapshot StripedRetentionStore::acquire_snapshot(
    std::span<const std::string> names) const {
  // Group the names by owning stripe first so each stripe lock is taken
  // at most once (and untouched stripes not at all).
  std::vector<std::vector<const std::string*>> by_stripe(stripes_.size());
  for (const auto& name : names)
    by_stripe[fnv1a(name) % stripes_.size()].push_back(&name);
  std::vector<StreamView> views;
  views.reserve(names.size());
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    if (by_stripe[i].empty()) continue;
    Stripe& stripe = *stripes_[i];
    const auto lock = lock_stripe(stripe.mu);
    for (const std::string* name : by_stripe[i]) {
      const auto it = stripe.streams.find(*name);
      if (it != stripe.streams.end())
        views.push_back(capture(it->first, it->second));
    }
  }
  std::sort(views.begin(), views.end(), by_view_name);
  return ReadSnapshot(epochs_, epochs_->pin(), std::move(views));
}

// ---- ReadSnapshot ----

const StreamView* ReadSnapshot::find(const std::string& name) const {
  const auto it = std::lower_bound(
      views_.begin(), views_.end(), name,
      [](const StreamView& v, const std::string& n) { return v.name < n; });
  if (it == views_.end() || it->name != name) return nullptr;
  return &*it;
}

std::vector<std::string> ReadSnapshot::stream_names() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& v : views_) names.push_back(v.name);
  return names;
}

std::optional<StreamMeta> ReadSnapshot::find_meta(
    const std::string& name) const {
  const StreamView* v = find(name);
  if (v == nullptr) return std::nullopt;
  return make_meta(v->collection_rate_hz, v->t0, v->ingested, v->generation);
}

sig::RegularSeries ReadSnapshot::query(const std::string& name,
                                       double t_begin, double t_end) const {
  const StreamView* v = find(name);
  NYQMON_CHECK_MSG(v != nullptr, "unknown stream: " + name);
  return reconstruct_range(v->collection_rate_hz, v->chunks, v->hot,
                           v->hot_t0, t_begin, t_end);
}

StreamSnapshot ReadSnapshot::export_stream(const std::string& name,
                                           std::size_t skip_chunks) const {
  const StreamView* v = find(name);
  NYQMON_CHECK_MSG(v != nullptr, "unknown stream: " + name);
  // Skip counts are absolute sealed-chunk indexes, so an eviction-trimmed
  // prefix only needs the skip to cover it (evicted chunks are already
  // durable in earlier segments by the time the cap may evict them).
  NYQMON_CHECK_MSG(skip_chunks >= v->chunks_trimmed,
                   "snapshot skip below evicted prefix: " + name);
  NYQMON_CHECK(skip_chunks <= v->chunks_trimmed + v->chunks.size());
  StreamSnapshot snap;
  snap.name = v->name;
  snap.collection_rate_hz = v->collection_rate_hz;
  snap.t0 = v->t0;
  snap.hot_t0 = v->hot_t0;
  snap.generation = v->generation;
  snap.chunks_before = skip_chunks;
  snap.chunks.reserve(v->chunks_trimmed + v->chunks.size() - skip_chunks);
  for (std::size_t i = skip_chunks - v->chunks_trimmed; i < v->chunks.size();
       ++i)
    snap.chunks.push_back(
        {v->chunks[i]->t0, v->chunks[i]->dt, v->chunks[i]->values});
  snap.hot = v->hot;
  snap.stats = v->stats;
  return snap;
}

void ReadSnapshot::release() {
  if (registry_) {
    registry_->release(epoch_);
    registry_.reset();
  }
  views_.clear();
  views_.shrink_to_fit();
}

}  // namespace nyqmon::mon
