// The seed Keccak-256, kept as a test-only differential oracle for the
// library's unrolled permutation in src/crypto/keccak.cc.
//
// A rolled Keccak-f[1600]: theta, rho-pi and chi as loops over the lane
// array, with the pi walk and rotation offsets read from tables. The sponge
// around it (rate 136, pre-SHA3 0x01 padding) is the seed's too, so the
// differential test in keccak_test compares two independent code paths.

#ifndef ONOFFCHAIN_CRYPTO_KECCAK_ORACLE_H_
#define ONOFFCHAIN_CRYPTO_KECCAK_ORACLE_H_

#include <array>
#include <cstdint>

#include "crypto/keccak.h"
#include "support/bytes.h"

namespace onoff::keccak::oracle {

// One-shot Keccak-256 of `data`.
Hash32 Keccak256(BytesView data);

// Incremental hasher with the library's Keccak256Hasher contract.
class Keccak256Hasher {
 public:
  Keccak256Hasher();
  void Update(BytesView data);
  Hash32 Finalize();

 private:
  std::array<uint64_t, 25> state_;
  std::array<uint8_t, 136> buffer_;  // rate = 136 bytes
  size_t buffer_len_;
};

}  // namespace onoff::keccak::oracle

#endif  // ONOFFCHAIN_CRYPTO_KECCAK_ORACLE_H_
