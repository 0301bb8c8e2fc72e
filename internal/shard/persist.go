// Sharded durability: Persist lays the partition out on disk as one
// directory per shard — each an ordinary engine-durable dataset directory
// (checksummed snapshot + write-ahead log) — plus a manifest recording the
// shard key boundaries, and Open reconstructs the whole Sharded from that
// layout, recovering every shard through Engine.OpenDataset.
package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"distbound"
)

// manifestName is the partition descriptor file inside a sharded directory.
const manifestName = "MANIFEST.json"

// manifestVersion guards the manifest schema.
const manifestVersion = 1

// manifest is the on-disk partition descriptor. Key boundaries serialize as
// decimal strings: MaxUint64 survives every JSON round-trip that way,
// which float64-typed JSON numbers cannot guarantee.
type manifest struct {
	Version    int             `json:"version"`
	Name       string          `json:"name"`
	HasWeights bool            `json:"has_weights"`
	Dropped    int             `json:"dropped"`
	Shards     []manifestShard `json:"shards"`
}

type manifestShard struct {
	Dir string `json:"dir"`
	Lo  uint64 `json:"lo,string"`
	Hi  uint64 `json:"hi,string"`
}

// shardDirName names shard i's directory inside the sharded root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Persist makes every shard durable under its own subdirectory of dir
// (shard-000, shard-001, …), each through Dataset.Persist with cfg, and
// writes the partition manifest last — atomically, via rename — so a
// directory with a manifest always names fully persisted shards. Later
// mutations through the Sharded keep write-ahead logging into the owning
// shard's directory. Persisting an already-durable Sharded is an error, as
// it is for a Dataset.
func (s *Sharded) Persist(dir string, cfg distbound.PersistConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: creating %s: %w", dir, err)
	}
	m := manifest{
		Version:    manifestVersion,
		Name:       s.name,
		HasWeights: s.hasW,
		Dropped:    s.dropped,
	}
	for i := range s.shards {
		sub := shardDirName(i)
		if err := s.shards[i].ds.Persist(filepath.Join(dir, sub), cfg); err != nil {
			return err
		}
		m.Shards = append(m.Shards, manifestShard{Dir: sub, Lo: s.shards[i].lo, Hi: s.shards[i].hi})
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("shard: installing manifest: %w", err)
	}
	return nil
}

// Open reconstructs a sharded dataset persisted under dir: the manifest
// names the shards and their key boundaries, and every shard recovers
// through Engine.OpenDataset over a fresh engine on regions — which must be
// the region set the partition was built over; the per-shard domain check
// inside OpenDataset rejects anything else. The recovered Sharded stays
// durable shard by shard.
func Open(regions []distbound.Region, dir string, cfg distbound.PersistConfig) (*Sharded, error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Name == "" || len(m.Shards) == 0 || len(m.Shards) > MaxShards {
		return nil, fmt.Errorf("shard: manifest names %d shards for dataset %q", len(m.Shards), m.Name)
	}
	s := &Sharded{
		name:    m.Name,
		regions: regions,
		domain:  distbound.DomainForRegions(regions...),
		hasW:    m.HasWeights,
		dropped: m.Dropped,
		results: newShardResultCache(),
	}
	prevHi := uint64(0)
	for i, ms := range m.Shards {
		// The intervals must tile the key space exactly: contiguity is what
		// makes routing's single forward sweep — and Append's ownership
		// search — sound.
		if i == 0 && ms.Lo != 0 {
			return nil, fmt.Errorf("shard: first shard starts at key %d, want 0", ms.Lo)
		}
		if i > 0 && ms.Lo != prevHi+1 {
			return nil, fmt.Errorf("shard: shard %d starts at key %d; predecessor ended at %d", i, ms.Lo, prevHi)
		}
		if ms.Hi < ms.Lo || (i == len(m.Shards)-1 && ms.Hi != math.MaxUint64) {
			return nil, fmt.Errorf("shard: shard %d owns malformed interval [%d, %d]", i, ms.Lo, ms.Hi)
		}
		prevHi = ms.Hi
		e := newShardEngine(regions)
		ds, err := e.OpenDataset(m.Name, filepath.Join(dir, ms.Dir), cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards = append(s.shards, shardState{engine: e, ds: ds, lo: ms.Lo, hi: ms.Hi})
	}
	return s, nil
}
