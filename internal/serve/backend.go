package serve

import (
	"context"

	"distbound"
	"distbound/internal/cache"
	"distbound/internal/shard"
)

// Backend is what the handlers serve. distboundd serves every shard count,
// one included, through ShardedBackend; the interface lets tests and
// benchmarks wrap or stub it. It speaks shard.Request/Response, so the
// handlers, metrics and clients are indifferent to the partition width.
type Backend interface {
	// Mode names the backend for stats ("sharded" for ShardedBackend).
	Mode() string
	// Query answers one aggregation request under ctx.
	Query(ctx context.Context, req shard.Request) (shard.Response, error)
	// Batch answers many requests, pairing each with its own outcome — a
	// failed request never aborts its siblings, mirroring DoBatch.
	Batch(ctx context.Context, reqs []shard.Request) ([]shard.Response, []error)
	// Append adds points to the dataset — weights iff it carries a weight
	// column — returning the assigned IDs. Every successful append bumps
	// Epoch, stranding cached results.
	Append(pts []distbound.Point, weights []float64) ([]uint64, error)
	// Epoch is the dataset's mutation counter (the per-shard sum on a
	// sharded backend) — the result cache's invalidation currency.
	Epoch() uint64
	// ResultCacheStats reports the counters of the backend's one result
	// cache: for ShardedBackend, the merged cache above the fan-out.
	ResultCacheStats() cache.Stats
	// Describe fills the dataset half of a stats response.
	Describe(st *StatsResponse)
	// Close releases the backend's datasets.
	Close()
}

// ShardedBackend serves a shard.Sharded.
type ShardedBackend struct {
	S *shard.Sharded
}

func (b *ShardedBackend) Mode() string { return "sharded" }

func (b *ShardedBackend) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	return b.S.Do(ctx, req)
}

func (b *ShardedBackend) Batch(ctx context.Context, reqs []shard.Request) ([]shard.Response, []error) {
	resps := make([]shard.Response, len(reqs))
	errs := make([]error, len(reqs))
	for i := range reqs {
		// Each request already scatters across shards; running the batch
		// lines in order keeps the stream's responses aligned with its
		// requests without buffering.
		resps[i], errs[i] = b.S.Do(ctx, reqs[i])
	}
	return resps, errs
}

func (b *ShardedBackend) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	return b.S.Append(pts, weights)
}

func (b *ShardedBackend) Epoch() uint64 { return b.S.EpochSum() }

func (b *ShardedBackend) ResultCacheStats() cache.Stats { return b.S.CacheStats() }

func (b *ShardedBackend) Describe(st *StatsResponse) {
	s := b.S.Stats()
	st.Dataset = b.S.Name()
	st.Regions = b.S.NumRegions()
	st.Live = s.Live
	st.Dropped = s.Dropped
	st.MemoryBytes = b.S.MemoryBytes()
	for _, sh := range s.PerShard {
		st.Shards = append(st.Shards, ShardStats{
			LoKey: sh.LoKey, HiKey: sh.HiKey, Live: sh.Live,
			Generation: sh.Generation, Epoch: sh.Epoch,
		})
	}
}

func (b *ShardedBackend) Close() { b.S.Close() }
