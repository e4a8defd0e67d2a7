package depsky

// Batched metadata reads. SCFS readdir/stat bursts and the garbage
// collector need the version lists of many data units at once; issuing one
// quorum read per unit serializes tens of round trips. ReadMetadataBatch
// fans a single bounded-concurrency sweep over the units instead: at any
// moment at most metadataBatchConcurrency units are in flight, each unit
// still reading from all n clouds in parallel.

import (
	"context"
	"sync"
)

// metadataBatchConcurrency bounds how many units are fetched concurrently
// by ReadMetadataBatch (each unit fans out to all n clouds, so the number
// of in-flight requests is this times n).
const metadataBatchConcurrency = 4

// ReadMetadataBatch fetches and merges the metadata of many units in one
// bounded-concurrency quorum sweep. The result maps each unit to its known
// versions, oldest first; units with no stored metadata are absent. Order
// and duplicates in units are tolerated. Cancelling ctx aborts the
// outstanding per-unit sweeps; already-fetched units still appear in the
// result.
func (m *Manager) ReadMetadataBatch(ctx context.Context, units []string) map[string][]VersionInfo {
	out := make(map[string][]VersionInfo, len(units))
	if len(units) == 0 {
		return out
	}
	// Deduplicate so a repeated unit costs one sweep entry.
	uniq := make([]string, 0, len(units))
	seen := make(map[string]bool, len(units))
	for _, u := range units {
		if !seen[u] {
			seen[u] = true
			uniq = append(uniq, u)
		}
	}

	type result struct {
		unit     string
		versions []VersionInfo
	}
	results := make(chan result, len(uniq))
	sem := make(chan struct{}, metadataBatchConcurrency)
	var wg sync.WaitGroup
	for _, unit := range uniq {
		wg.Add(1)
		go func(unit string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			results <- result{unit: unit, versions: m.readMetadata(ctx, unit).Versions}
		}(unit)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if len(r.versions) > 0 {
			out[r.unit] = r.versions
		}
	}
	return out
}
