// The seed RLP encoder — an encoder over `rlp::Item` trees — kept verbatim
// as a test-only differential oracle for `rlp::Writer`, the library's one
// encoder (rlp_test, the domain encoders' tests), and as the encoder of the
// seed trie oracle under tests/trie, so that oracle shares no encoding code
// with the library trie it checks.

#ifndef ONOFFCHAIN_TESTS_RLP_RLP_ORACLE_H_
#define ONOFFCHAIN_TESTS_RLP_RLP_ORACLE_H_

#include <vector>

#include "rlp/rlp.h"
#include "support/bytes.h"

namespace onoff::rlp::oracle {

// Serializes an item.
Bytes Encode(const Item& item);

// Convenience encoders.
Bytes EncodeString(BytesView data);
Bytes EncodeList(const std::vector<Bytes>& encoded_children);

}  // namespace onoff::rlp::oracle

#endif  // ONOFFCHAIN_TESTS_RLP_RLP_ORACLE_H_
