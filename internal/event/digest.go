package event

import "hash/fnv"

// fusedDigestRule is the revision of the rule that folds commit PCs and
// writebacks into a fused window's digests (internal/squash): 1 was XOR,
// 2 is the order-sensitive multiply fold. Peers that fold differently would
// report false mismatches, so the rule is part of FormatDigest.
const fusedDigestRule = 2

// FormatDigest returns a stable fingerprint of the wire format this binary
// speaks: the number of event kinds and, per kind, its name and fixed wire
// size, plus the fused-digest rule. Two processes agree on the digest exactly when their generated
// codecs (codec_gen.go) describe the same layout, so the networked transport
// exchanges it during the handshake — the runtime counterpart of the
// `go generate` drift gate, catching a client and server built from
// different codec revisions before any payload is decoded.
func FormatDigest() uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			scratch[i] = byte(v >> (8 * i))
		}
		h.Write(scratch[:])
	}
	put(uint64(NumKinds))
	for k := Kind(0); k < NumKinds; k++ {
		in := InfoOf(k)
		h.Write([]byte(in.Name))
		put(uint64(in.Size))
	}
	put(fusedDigestRule)
	return h.Sum64()
}
