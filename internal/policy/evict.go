package policy

// Evictor decides whether read operands stay on the device after each
// kernel: the streaming-vs-caching axis separating cuBLAS-XT from the
// caching runtimes in Fig. 6. Under capacity pressure every library evicts
// by the cache's one LRU rule (§III-A).
type Evictor interface {
	Name() string

	// RetainAfterRead reports whether read-operand replicas stay cached
	// once the consuming kernel finishes. Streaming libraries return
	// false: every later read re-fetches the operand.
	RetainAfterRead() bool
}

// LRUReadOnlyFirst is XKaapi's discipline (§III-A): operands stay cached
// after use and leave device memory only under capacity pressure.
type LRUReadOnlyFirst struct{}

// Name implements Evictor.
func (LRUReadOnlyFirst) Name() string { return "lru-read-only-first" }

// RetainAfterRead implements Evictor.
func (LRUReadOnlyFirst) RetainAfterRead() bool { return true }

// Streaming is cuBLAS-XT's discipline: tiles pipe through fixed staging
// buffers, so input replicas are dropped as soon as the consuming kernel
// finishes and every product re-reads its operands over PCIe (the
// HtoD-dominated profile of Fig. 6).
type Streaming struct{}

// Name implements Evictor.
func (Streaming) Name() string { return "streaming" }

// RetainAfterRead implements Evictor.
func (Streaming) RetainAfterRead() bool { return false }
