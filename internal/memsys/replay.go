package memsys

import (
	"context"

	"colcache/internal/memtrace"
)

// Chunked trace replay: a memtrace.Decoder feeds the system batch-wise, so
// an arbitrarily long trace streams through a fixed-size buffer instead of
// materializing in memory first, and the replay loop pays the decoder's
// per-call error handling once per chunk rather than once per access.

// ReplayOptions parameterize Replay; they are RunContext's options.
type ReplayOptions = RunOptions

// Replay streams the decoder's remaining records through the system and
// returns the accesses replayed and the cycles consumed. It runs the same
// loop as RunContext — checkpoints, exact-position inspection, MaxAccesses
// and Resume behave identically — decoding CheckEvery records at a time
// into one buffer allocated per call. On cancellation the accesses and
// cycles consumed so far are returned with ctx.Err(). A decode error (bad
// magic, truncated record, invalid op) is returned as-is after the records
// that preceded it have been replayed.
func (s *System) Replay(ctx context.Context, d *memtrace.Decoder, opts ReplayOptions) (int64, int64, error) {
	size := opts.CheckEvery
	if size <= 0 {
		size = DefaultCheckEvery
	}
	buf := make([]memtrace.Access, size)
	return s.run(ctx, func(n int) ([]memtrace.Access, error) {
		k, err := d.DecodeBatch(buf[:n])
		return buf[:k], err
	}, opts)
}
