package storage

import (
	"context"
	"errors"

	"scfs/internal/depsky"
)

// PNSStore persists a user's Private Name Space object in the cloud backend.
// Unlike file versions (which are content-addressed through the consistency
// anchor), the PNS is looked up by user name: the single-writer-per-PNS
// assumption (enforced by the PNS lock in the coordination service, or by the
// single-client assumption of the non-sharing mode) makes this safe.
type PNSStore interface {
	// WritePNS stores the serialized name space of user.
	WritePNS(ctx context.Context, user string, data []byte) error
	// ReadPNS returns the most recent stored name space of user, or
	// ErrPNSNotFound if none exists yet.
	ReadPNS(ctx context.Context, user string) ([]byte, error)
}

// ErrPNSNotFound is returned when the user has no stored PNS yet.
var ErrPNSNotFound = errors.New("storage: private name space not found")

func pnsObject(user string) string { return "pns/" + user }

// CoCPNS stores the PNS as a DepSky data unit (latest version wins).
type CoCPNS struct {
	mgr *depsky.Manager
}

// NewCoCPNS wraps a DepSky manager.
func NewCoCPNS(mgr *depsky.Manager) *CoCPNS { return &CoCPNS{mgr: mgr} }

// WritePNS implements PNSStore.
func (c *CoCPNS) WritePNS(ctx context.Context, user string, data []byte) error {
	_, err := c.mgr.Write(ctx, pnsObject(user), data)
	return err
}

// ReadPNS implements PNSStore.
func (c *CoCPNS) ReadPNS(ctx context.Context, user string) ([]byte, error) {
	data, _, err := c.mgr.Read(ctx, pnsObject(user))
	if errors.Is(err, depsky.ErrUnitNotFound) {
		return nil, ErrPNSNotFound
	}
	return data, err
}
