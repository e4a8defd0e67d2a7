// Fixture for the metriclabels analyzer: telemetry.Name call sites must
// keep the registry's cardinality bounded.
package metrics

import (
	"fmt"

	"telemetry"
)

const constBase = "rpc_total"

func clean(cloudName string) {
	_ = telemetry.Name("rpc_total", "cloud", cloudName, "op", "get")
	_ = telemetry.Name(constBase, "outcome", "ok")
	_ = telemetry.Name("plain_counter")
	_ = telemetry.Name("pre" + "fix_total") // constant folding: still a fixed name
}

func throughHelper(base string) {
	// A helper parameter threading a literal is accepted; the vocabulary
	// check still applies at this site.
	_ = telemetry.Name(base, "result", "hit")
}

func flagged(cloudName, dynamicKey string) {
	_ = telemetry.Name("rpc_total", "cloud")                   // want `kv tail has 1 argument`
	_ = telemetry.Name("rpc_total", dynamicKey, "x")           // want `label key must be a compile-time constant`
	_ = telemetry.Name("rpc_total", "path", cloudName)         // want `label key "path" is not in the fixed vocabulary`
	_ = telemetry.Name("requests_total", "tenant", cloudName)  // want `label key "tenant" is not in the fixed vocabulary`
	_ = telemetry.Name(fmt.Sprintf("rpc_%s_total", cloudName)) // want `base name built by a function call`
	_ = telemetry.Name("rpc_" + cloudName + "_total")          // want `base name built by concatenation`
	name := fmt.Sprintf("rpc_%s", cloudName)
	_ = telemetry.Name(name, "op", "get") // want `base name assigned from fmt.Sprintf`
}

func spread(kv []string) {
	_ = telemetry.Name("rpc_total", kv...) // want `spread kv slice`
}

func justified(counter string) {
	//scfslint:ignore metriclabels fixture: migration shim, names validated upstream
	_ = telemetry.Name("rpc_total", "legacy_key", counter)
}
