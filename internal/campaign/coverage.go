package campaign

// Coverage keys. The campaign's composite coverage signal is a set of
// 64-bit keys accumulated in one campaign-global map, which only the
// serial phases touch; every key mixes a class tag, the owning
// program's source hash, and the class-specific payload, so the same
// behavior in two different programs counts twice (the corpus is
// program×schedule space) while the same behavior of one program never
// does.
//
// Classes:
//
//   - sig: a positional state signature at a genuine branch point
//     (sched.Choice.Sig) folded with the thread that was chosen there —
//     the same (state, decision) pair the DFS explorer prunes on. New
//     keys mean the schedule drove the threads somewhere no earlier
//     schedule of this program did.
//   - verdict: the run's outcome class (interp.Outcome), refined by the
//     value-oracle check kind for value errors. New keys mean a new way
//     for this program to pass or fail.
//   - edge: a happens-before dependency-edge shape of a racing access
//     pair (monitor.Analysis.EdgeSignature). New keys mean a new
//     ordering relationship between conflicting steps was observed.
//   - static: a compile-time warning kind, added once at corpus
//     admission (they cost no schedule budget).

// Key classes.
const (
	classSig uint64 = iota + 1
	classVerdict
	classEdge
	classStatic
)

// FNV-1a, the hash family used across the engine.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// fnvString hashes a string with FNV-1a.
func fnvString(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix folds v into h with a splitmix64 finalizer — the same
// construction internal/explore uses for its (state, decision) child
// keys, strong enough that set collisions are noise.
func mix(h, v uint64) uint64 {
	x := h ^ (v + 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// key builds a coverage key: class tag + program hash + payload.
func key(class, prog, payload uint64) uint64 {
	return mix(mix(prog, class), payload)
}
