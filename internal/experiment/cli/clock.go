package cli

import "time"

// hostNow and hostSince are the cli layer's only wall-clock access,
// used to time *host* kernel runs (the -verify LU / CG executions),
// never simulated results. Binding them as variables keeps every
// wall-clock read auditable at this one declaration — and overridable
// in tests — which is the injected-clock shape the detflow analyzer
// asks for.
var (
	hostNow   = time.Now
	hostSince = time.Since
)
