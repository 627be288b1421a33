package timing

// Test-only exports for the external sta_test package, which draws its
// edits with eco.RandomDeltas (package eco imports timing, so those tests
// cannot live in package timing itself).
var (
	DiffCircuits = diffCircuits
	Chain        = chain
)

// ChunkLen is the number of cells that share one copy-on-write chunk of an
// STA's per-cell slices.
const ChunkLen = chunkMask + 1
