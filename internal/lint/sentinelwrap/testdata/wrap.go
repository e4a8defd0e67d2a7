// Fixture for the sentinelwrap analyzer: error values through fmt.Errorf
// must use %w so errors.Is classification survives the layer.
package wrap

import (
	"errors"
	"fmt"
)

var ErrUnavailable = errors.New("cloud: provider unavailable")

type opError struct{ msg string }

func (e *opError) Error() string { return e.msg }

func flagged(err error, op *opError) {
	_ = fmt.Errorf("get failed: %v", err)         // want `error formatted with %v breaks the errors.Is/As chain`
	_ = fmt.Errorf("get failed: %s", err)         // want `error formatted with %s breaks the errors.Is/As chain`
	_ = fmt.Errorf("get failed: %+v", err)        // want `error formatted with %v breaks the errors.Is/As chain`
	_ = fmt.Errorf("%w: %v", ErrUnavailable, err) // want `error formatted with %v breaks the errors.Is/As chain`
	_ = fmt.Errorf("op: %v", op)                  // want `error formatted with %v breaks the errors.Is/As chain`
	_ = fmt.Errorf("%[2]v of %[1]s", "x", err)    // want `error formatted with %v breaks the errors.Is/As chain`
	_ = fmt.Errorf("%*d %v", 3, 7, err)           // want `error formatted with %v breaks the errors.Is/As chain`
}

func nonConstant(format string, err error) {
	_ = fmt.Errorf(format, err) // want `non-constant format`
}

func clean(err error, n int, name string) {
	_ = fmt.Errorf("get failed: %w", err)
	_ = fmt.Errorf("%w: shard %d of %s", err, n, name)
	_ = fmt.Errorf("%w: %w", ErrUnavailable, err)
	_ = fmt.Errorf("plain %d and %s, no errors involved", n, name)
	_ = fmt.Errorf("escaped %%v is not a verb: %w", err)
	// The message of an error is a string, not an error value; taking it
	// deliberately severs the chain and that is visible at the call site.
	_ = fmt.Errorf("detail: %s", err.Error())
}
