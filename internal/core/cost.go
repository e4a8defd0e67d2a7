package core

import "context"

// CostReport is the mount's cloud-spend snapshot: what the files owned by
// this principal currently occupy across the clouds and what that costs in
// dollars under the backend's price table. Everything version-granular is
// an estimate derived from the same cost model the garbage collector reports
// its reclaim in (storage.VersionCoster).
type CostReport struct {
	// Files is how many live file records were examined (directories and
	// other users' files are skipped).
	Files int
	// Versions counts the stored versions across those files — the current
	// one plus every older version the garbage collector has not yet
	// reclaimed, plus the remains of deleted files.
	Versions int
	// LogicalBytes is the plaintext the versions hold.
	LogicalBytes int64
	// CloudBytes is what those versions occupy across the charged clouds
	// (erasure-coded shards on the write quorum for DepSky-CA, n replicas
	// for DepSky-A, so the raw size on a single cloud).
	CloudBytes int64
	// CloudObjects is how many cloud objects hold them (chunked versions
	// occupy one object per chunk per charged cloud).
	CloudObjects int64
	// StorageDollarsPerMonth is the recurring spend of keeping everything.
	StorageDollarsPerMonth float64
	// ReadOnceDollars estimates reading every file's current version once
	// (GET fees + egress at the clouds a read contacts).
	ReadOnceDollars float64
	// ReclaimDollars estimates deleting every stored version (the request
	// fees a full reclamation would spend).
	ReclaimDollars float64
}

// CostReport walks the metadata of the files owned by this agent's user and
// prices their cloud footprint. It issues the same batched metadata listing
// a garbage-collection scan does (no payload bytes move) and is safe to
// call on a live mount.
func (a *Agent) CostReport(ctx context.Context) (CostReport, error) {
	var report CostReport
	entries, err := a.listSubtree(ctx, "/")
	if err != nil {
		return report, err
	}
	for _, md := range entries {
		if md.Owner != a.opts.User || md.IsDir() {
			continue
		}
		report.Files++
		for _, v := range md.Versions {
			report.Versions++
			report.LogicalBytes += v.Size
			fp := a.opts.Storage.EstimateVersionFootprint(v.Size)
			report.CloudBytes += fp.Bytes
			report.CloudObjects += fp.Objects
			report.StorageDollarsPerMonth += fp.Dollars.StoragePerMonth
			report.ReclaimDollars += fp.Dollars.DeleteOnce
		}
		// One read per live file, priced once off the current size (a file
		// may hold several version records with the current hash — writing
		// identical content twice appends two — so pricing inside the
		// version loop would double-count the read).
		if !md.Deleted {
			fp := a.opts.Storage.EstimateVersionFootprint(md.Size)
			report.ReadOnceDollars += fp.Dollars.ReadOnce
		}
	}
	return report, nil
}
