package vm

import "time"

// Content hashing for the content-addressed page store. Pages are named
// by a 64-bit FNV-1a hash over their full page-size image (short run
// tails hash as if zero-padded, matching Materialize's tail-clearing),
// so a page's name is independent of how its bytes happened to be
// sliced into runs. The hash is non-cryptographic: the store is a
// performance optimization inside one simulated cluster, not a
// security boundary, and a verify-on-lookup re-hash guards against
// recycled frames (see ContentIndex).

// ZeroHash is the reserved name of the all-zero page. HashPage never
// returns it for a non-zero page, so zero detection is a single
// comparison everywhere downstream (manifest classification, fault
// reply elision, insert-time reconstruction).
const ZeroHash uint64 = 0

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashPage names a page image: data is the page's bytes (possibly a
// short final-page slice), pageSize the page stride. Missing tail bytes
// hash as zeros. The second result reports whether the page is entirely
// zero, in which case the hash is the ZeroHash sentinel.
func HashPage(data []byte, pageSize int) (uint64, bool) {
	h := fnvOffset64
	zero := true
	n := len(data)
	if n > pageSize {
		n = pageSize
	}
	for i := 0; i < n; i++ {
		b := data[i]
		if b != 0 {
			zero = false
		}
		h ^= uint64(b)
		h *= fnvPrime64
	}
	if zero {
		return ZeroHash, true
	}
	// Hash the implicit zero tail so partial and full images of the
	// same page agree.
	for i := n; i < pageSize; i++ {
		h *= fnvPrime64
	}
	if h == ZeroHash {
		h = 1 // keep the sentinel unambiguous
	}
	return h, false
}

// PageHash names one page of an attachment or segment by (index, hash).
// It is the unit of the migration manifest and of the elided-page and
// hash-hint lists riding ipc.MemAttachment.
type PageHash struct {
	Index uint64 // page index (attachment-relative or segment-relative)
	Hash  uint64 // HashPage of the page image; ZeroHash for zero pages
}

// PageHashWireBytes is the wire price of one PageHash entry: an 8-byte
// hash plus a 4-byte page index (manifests and elision lists cover at
// most a few thousand pages, so indexes fit in 32 bits on the wire).
const PageHashWireBytes = 12

// HashRun appends (index, hash) entries for every page of a run to dst
// and returns the extended slice. It is the manifest-building sweep:
// one pass over the run's bytes, no allocation beyond dst's growth.
func HashRun(dst []PageHash, r PageRun, pageSize int) []PageHash {
	for i := 0; i < r.Count; i++ {
		h, _ := HashPage(r.Page(i, pageSize), pageSize)
		dst = append(dst, PageHash{Index: r.Index + uint64(i), Hash: h})
	}
	return dst
}

// ModelCompressedSize estimates the post-compression size of a page
// image without actually compressing: a stride predictor (next byte =
// prev + last delta) counts mispredicted bytes, and the modeled output
// is a small header plus two bytes per misprediction, capped at the
// raw size. Synthetic workload pages with linear fill patterns model
// as highly compressible while random-looking content models as
// incompressible, which is the workload-dependent ratio the sweep
// needs. The estimate is deterministic and allocation-free.
func ModelCompressedSize(data []byte, pageSize int) int {
	raw := len(data)
	if raw == 0 {
		return 0
	}
	const header = 8
	miss := 1 // the first byte is always literal
	var prev, delta byte
	prev = data[0]
	for i := 1; i < raw; i++ {
		b := data[i]
		if b != prev+delta {
			miss++
		}
		delta = b - prev
		prev = b
	}
	size := header + 2*miss
	if size > raw {
		size = raw
	}
	return size
}

// DedupConfig parameterizes the content-addressed page store. The zero
// value disables it entirely: no hashing, no indexing, no manifest
// exchange, so the default simulation is byte-identical to a build
// without the store.
type DedupConfig struct {
	// Enabled turns on content hashing, the per-machine index, the
	// migration manifest exchange, and nearest-holder fault serving.
	Enabled bool
	// Compress adds the modeled per-run compression to shipped runs
	// (requires Enabled).
	Compress bool
	// Resume retains delivered page content across failed migration
	// attempts in a destination-side DeliveryLedger, so a retry's
	// manifest exchange elides pages that already made the crossing.
	// Resume works with or without Enabled: on its own it runs the
	// manifest exchange purely for ledger elision.
	Resume bool
	// Integrity stamps per-page checksums on migration payload
	// attachments, verifies them at install time, and repairs
	// mismatches by single-page hash reads back to the source.
	Integrity bool
}

// Content-store cost model. Each cost is charged only on a path a
// DedupConfig flag enables. Hashing 512 bytes is a fast pass over one
// page (~a tenth of the 2 ms map-in cost); the modeled compressor
// costs about a quarter of the 13 ms fragment handling it can save; a
// local serve is a frame copy plus map-in bookkeeping.
const (
	// HashPerPageCPU is charged at the source for hashing one page when
	// building a manifest (and at any machine indexing a page).
	HashPerPageCPU = 200 * time.Microsecond
	// CompressPerPageCPU / DecompressPerPageCPU are charged per shipped
	// page at the source / destination when Compress is on.
	CompressPerPageCPU   = 3 * time.Millisecond
	DecompressPerPageCPU = 1 * time.Millisecond
	// LocalServeCPU is charged when a fault is satisfied from the
	// destination's own content index instead of the wire.
	LocalServeCPU = 1 * time.Millisecond
)

// ManifestActive reports whether migrations run the OpManifest
// exchange: for content elision (Enabled), for ledger-driven resume
// (Resume), or both.
func (c DedupConfig) ManifestActive() bool { return c.Enabled || c.Resume }
