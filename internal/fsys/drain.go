package fsys

// DrainInfo is the optional interface of backends with a background drain
// tier (the burst-buffer fleet): DrainHorizon reports the simulated time by
// which everything absorbed so far is expected to have reached durable
// storage. The async flush path reads it to report drain-queue residency,
// and the recovery layer defers epoch seals to it. Reading it charges no
// simulated time and draws no random numbers.
type DrainInfo interface {
	DrainHorizon() float64
}
