// Gorilla-style XOR compression for regular-grid float values.
//
// The durable tier stores sealed retention chunks as compact binary blocks.
// Timestamps never hit disk — chunk values sit on a regular grid fully
// described by (t0, dt, n) in the block header — so the codec only has to
// handle the values. Following Facebook's Gorilla (VLDB'15) value scheme,
// each double is XORed with its predecessor: identical values cost one bit,
// slowly varying telemetry (the common case after Nyquist re-sampling)
// costs only its changed significand window. The encoding is bit-exact —
// decode returns the original 64-bit patterns, which is what makes
// reconstructions from a reopened store bit-identical to the live run.
//
// Layering note: this header (like crc32.h) is a dependency-free leaf —
// monitor/'s chunk-seal path calls xor_encoded_size() so the store's byte
// accounting reflects the real codec in every run, persisted or not. The
// rest of storage/ sits above monitor/ and must not be included from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nyqmon::sto {

/// Codec identifier byte stored in chunk/tail block headers.
inline constexpr std::uint8_t kCodecXor = 1;

/// Encode `values` into the XOR bit stream. The sample count is not part of
/// the stream; callers persist it in the enclosing block header.
std::vector<std::uint8_t> xor_encode(std::span<const double> values);

/// Exact byte size xor_encode() would produce, without materializing the
/// buffer — the hook the retention store uses to account stored bytes at
/// chunk-seal time.
std::size_t xor_encoded_size(std::span<const double> values);

/// Decode exactly `count` doubles. Throws std::runtime_error if the stream
/// is too short (possible only for corrupt-but-CRC-colliding blocks; the
/// segment reader treats that like a CRC failure), checked up front when
/// `count` exceeds what `bytes` can encode (64 bits for the first value,
/// at least 1 per later one), so a hostile count never sizes an allocation.
std::vector<double> xor_decode(std::span<const std::uint8_t> bytes,
                               std::size_t count);

/// Per-chunk on-disk overhead beyond the codec payload: the segment block
/// frame (type, length, CRC) plus the chunk header (t0, dt, count, codec id).
/// Kept here so the store's byte accounting matches what flush() writes;
/// segment.cc static_asserts the value against its actual framing.
inline constexpr std::size_t kChunkDiskOverheadBytes = 30;

}  // namespace nyqmon::sto
