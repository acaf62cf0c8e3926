// Executable image format for AVM programs.
//
// An Executable is the flat initial contents of a process's address space
// (text then data, loaded at address 0) plus the entry point. Loading one is
// deterministic, which is what lets a pre-first-sync backup recover by
// simply re-running the image against the saved message queue (§7.7: head-
// of-family backups exist from creation but hold no pages until first sync).
// Pages load clean: the image stays the backing store of every page the
// process never writes, so syncs ship only written pages and a rollforward
// takes the others back from the image (AvmBody::InstallPage).

#ifndef AURAGEN_SRC_AVM_PROGRAM_H_
#define AURAGEN_SRC_AVM_PROGRAM_H_

#include <cstdint>

#include "src/base/codec.h"
#include "src/base/types.h"
#include "src/avm/isa.h"

namespace auragen {

struct Executable {
  Bytes image;        // text + data, loaded at address 0
  uint32_t entry = 0; // initial pc

  // Number of pages the image occupies.
  uint32_t NumPages() const {
    return static_cast<uint32_t>((image.size() + kAvmPageBytes - 1) / kAvmPageBytes);
  }

  // Initial content of page `p`, zero-padded to a full page.
  Bytes PageContent(PageNum p) const {
    Bytes out(kAvmPageBytes, 0);
    size_t base = static_cast<size_t>(p) * kAvmPageBytes;
    for (size_t i = 0; i < kAvmPageBytes && base + i < image.size(); ++i) {
      out[i] = image[base + i];
    }
    return out;
  }

  void Serialize(ByteWriter& w) const {
    w.U32(entry);
    w.Blob(image);
  }
  static Executable Deserialize(ByteReader& r) {
    Executable e;
    e.entry = r.U32();
    e.image = r.Blob();
    return e;
  }
};

}  // namespace auragen

#endif  // AURAGEN_SRC_AVM_PROGRAM_H_
