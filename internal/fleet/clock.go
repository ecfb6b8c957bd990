package fleet

import "time"

// hostNow, hostSince and hostSleep are the fleet layer's only wall-clock
// access: supervisor backoff, health-probe pacing and uptime reporting.
// None of it feeds simulated results. Binding the functions as package
// variables keeps every wall-clock read auditable at this one declaration
// — and overridable in tests — which is the injected-clock shape the
// detflow analyzer asks for.
var (
	hostNow   = time.Now
	hostSince = time.Since
	hostSleep = time.Sleep
)
