package analysis

import "strings"

// ModulePath is the import-path prefix of the repository this suite
// self-hosts in. Analyzers scope themselves to directories *relative* to
// the module root ("internal/mpisim", not "clustereval/internal/mpisim")
// so that analysistest fixtures — whose synthetic import paths have no
// module prefix — exercise exactly the production scoping logic.
const ModulePath = "clustereval"

// SimPackages are the packages whose results feed the paper's golden
// CSVs: everything here must be bit-reproducible from a seed. The
// detflow analyzer bans wall-clock and global-PRNG use in them, and
// map-ordered output.
var SimPackages = []string{
	"internal/des",
	"internal/mpisim",
	"internal/memsim",
	"internal/interconnect",
	"internal/faultsim",
	"internal/experiment",
	"internal/machine",
	"internal/topology",
	"internal/hpl",
	"internal/hpcg",
	"internal/apps",
	"internal/bench",
	// Fleet coordination and load generation are not seed-reproducible
	// simulations, but they must stay testable under fake clocks: every
	// wall-clock read goes through an injectable binding (hostNow,
	// Limiter.now), which is exactly what the detflow analyzer
	// enforces.
	"internal/fleet",
	"internal/loadgen",
}

// CtxPackages are the packages on the deadline-abort chain: clusterd's
// per-job deadlines cancel a simulation mid-run only if every Run*/
// Measure* entry point on the way accepts and forwards a context.
// internal/bench/stream and /fpu are excluded: their Run* functions
// execute real host kernels whose inner loops are not abortable.
var CtxPackages = []string{
	"internal/des",
	"internal/mpisim",
	"internal/memsim",
	"internal/interconnect",
	"internal/faultsim",
	"internal/experiment",
	"internal/machine",
	"internal/topology",
	"internal/hpl",
	"internal/hpcg",
	"internal/apps",
	"internal/bench/osu",
	// The coordinator's probe loop and the load generator's run loop are
	// both long-running: their exported entry points must accept and
	// honor a context so shutdown and deadlines propagate fleet-wide.
	"internal/fleet",
	"internal/loadgen",
}

// CanonPackages are the packages that produce canonical byte streams:
// cache keys, journal records, and the fault-spec canonicalization they
// hash. The detflow analyzer enforces sorted iteration and fixed-width
// encoding inside their canonicalization functions.
var CanonPackages = []string{
	"internal/experiment",
	"internal/faultsim",
	"internal/journal",
	"internal/service",
}

// WrapPackages are the packages whose errors cross package boundaries
// behind sentinel checks (errors.Is(err, journal.ErrCorrupt), service's
// typed overload errors): fmt.Errorf there must wrap with %w.
var WrapPackages = []string{
	"internal/service",
	"internal/journal",
}

// UnitsPackage is the home of the typed quantities (Seconds, Bytes,
// BytesPerSecond, FlopsPerSecond) whose arithmetic unitsafe polices.
const UnitsPackage = "internal/units"

// LockPackages are the packages whose mutex discipline lockorder
// enforces: the fleet coordinator/supervisor, the service's queue and
// metrics registry, and the journal — the code where an inconsistent
// lock-pair ordering or a lock held across a blocking channel op or
// journal fsync turns "heavy traffic" into a fleet-wide stall.
var LockPackages = []string{
	"internal/fleet",
	"internal/service",
	"internal/journal",
}

// GoroPackages are the packages where goroleak polices `go` statements:
// long-lived concurrent machinery (supervisor restart loops, replica
// ingest streams, pooled DES procs, loadgen workers, daemon mains)
// where a goroutine with no cancellation path outlives its owner.
var GoroPackages = []string{
	"internal/des",
	"internal/fleet",
	"internal/service",
	"internal/journal",
	"internal/loadgen",
	"internal/omp",
	"internal/experiment/cli",
	"cmd",
}

// RelPkgPath maps an import path onto its module-relative form:
// "clustereval/internal/hpl" and the fixture path "internal/hpl" both
// yield ("internal/hpl", true). Paths outside the module — stdlib,
// other modules — yield ok=false, which analyzers treat as out of scope.
func RelPkgPath(pkgPath string) (rel string, ok bool) {
	if pkgPath == ModulePath {
		return "", true
	}
	if rest, found := strings.CutPrefix(pkgPath, ModulePath+"/"); found {
		return rest, true
	}
	if strings.HasPrefix(pkgPath, "internal/") {
		// Fixture packages in analysistest use module-relative paths
		// directly.
		return pkgPath, true
	}
	return "", false
}

// UnderAny reports whether the module-relative path rel is one of the
// prefixes or nested beneath one.
func UnderAny(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// InScope combines RelPkgPath and UnderAny for the common analyzer
// prologue.
func InScope(pkgPath string, prefixes []string) bool {
	rel, ok := RelPkgPath(pkgPath)
	return ok && UnderAny(rel, prefixes)
}
