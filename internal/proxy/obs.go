package proxy

import (
	"strconv"

	"dpstore/internal/obs"
)

// Proxy and pipeline instruments. The scheduler and pipeline aggregates
// are ClassExact where they count data-independent work (every access is
// one scheme invocation; per-access batch shapes are fixed by the
// scheme's parameters, which is what the transcript-shape regressions
// already pin) and ClassTiming where coalescing makes them depend on
// arrival timing (checkpoint bursts, write-behind flush sizes).

var (
	obsAccesses = obs.NewCounter("dpstore_proxy_accesses_total",
		obs.WithHelp("logical record accesses executed by proxy schedulers"))
	obsCheckpoint = obs.NewTimer("dpstore_proxy_checkpoint_seconds",
		obs.WithHelp("scheme-state checkpoint (marshal + journal append + release)"))
	obsCheckpointBurst = obs.NewHist("dpstore_proxy_checkpoint_burst_accesses", obs.WithClass(obs.ClassTiming),
		obs.WithHelp("accesses sharing one checkpoint in journaled mode"))

	obsPipeReadBlocks = obs.NewHist("dpstore_pipeline_read_batch_blocks",
		obs.WithHelp("blocks per scheme-issued pipeline read batch"))
	obsPipeWriteOps = obs.NewHist("dpstore_pipeline_write_batch_ops",
		obs.WithHelp("ops per scheme-issued pipeline write batch"))
	obsPipeRead = obs.NewTimer("dpstore_pipeline_read_seconds",
		obs.WithHelp("pipeline read-batch round trip to the backing store"))
	obsPipeFlushOps = obs.NewHist("dpstore_pipeline_flush_ops", obs.WithClass(obs.ClassTiming),
		obs.WithHelp("ops coalesced per write-behind flush"))
	obsPipeFlush = obs.NewTimer("dpstore_pipeline_flush_seconds",
		obs.WithHelp("write-behind flush round trip to the backing store"))
)

// RegisterObs exports this proxy's queue-depth gauge on the process
// registry, labeled by its public partition index (0 for an
// unpartitioned proxy). Re-registering an index re-points the gauge at
// the newest proxy — what a daemon restart or test rebuild wants. The
// scheme's stash occupancy is deliberately not exported: it moves with
// whether each access found its record stashed, so a live reading of it
// follows the access pattern.
func (p *Proxy) RegisterObs(partition int) {
	lbl := strconv.Itoa(partition)
	obs.NewGaugeFunc("dpstore_proxy_queue_depth",
		func() int64 { return int64(p.QueueDepth()) },
		obs.WithLabels("partition", lbl))
}
