package memsys

// Checkpoint is the serializable progress marker of a RunContext run: how
// many accesses have executed and the cycles they consumed. Because the
// machine is deterministic in (config, trace), this pair is a complete
// resume token — RunOptions.Resume rebuilds the exact machine state by
// fast-forwarding the trace prefix, so nothing else needs to be
// serialized. colserved journals these to its write-ahead log at
// checkpoint cadence and resumes in-flight jobs from the last one after a
// crash.
type Checkpoint struct {
	Done   int64 `json:"done"`   // accesses executed
	Cycles int64 `json:"cycles"` // cycles consumed by them
}
