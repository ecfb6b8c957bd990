package mpisim

import (
	"fmt"
	_ "math/rand" // want `import of math/rand in a simulation package`
	"sort"
	"time"
)

// hostNow is the injected-clock shape: binding the function value is
// allowed, calling time.Now inline is not.
var hostNow = time.Now

func stamp() time.Time {
	return time.Now() // want `call to time\.Now in a simulation package`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `call to time\.Since`
}

func throttle() {
	time.Sleep(time.Millisecond) // want `call to time\.Sleep`
}

func waived() time.Time {
	//lint:allow detflow wall-clock timestamp feeds the metrics endpoint only
	return time.Now()
}

func dumpUnsorted(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `map iteration order is random but reaches Printf in dumpUnsorted`
	}
}

func dumpSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, m[k])
	}
}

// deadlockSorted has the shape of the des engine's deadlock report: map
// order flows through Sprintf and append, and the sort cleanses it
// before the error text is formatted.
func deadlockSorted(waiting map[string]string) error {
	names := make([]string, 0, len(waiting))
	for p, what := range waiting {
		names = append(names, fmt.Sprintf("%s (on %s)", p, what))
	}
	sort.Strings(names)
	return fmt.Errorf("deadlock: %v", names)
}

// deadlockUnsorted is the same report without the sort.
func deadlockUnsorted(waiting map[string]string) error {
	names := make([]string, 0, len(waiting))
	for p, what := range waiting {
		names = append(names, fmt.Sprintf("%s (on %s)", p, what))
	}
	return fmt.Errorf("deadlock: %v", names) // want `map iteration order is random but reaches Errorf in deadlockUnsorted`
}

// printKeysUnsorted ranges over keys collected in map order: each key
// the loop yields carries that order to the output.
func printKeysUnsorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		fmt.Println(k) // want `map iteration order is random but reaches Println in printKeysUnsorted`
	}
}

// countKeys emits only what map order does not decide: how many keys
// there are, and the loop's index.
func countKeys(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Println(len(keys), cap(keys))
	for i := range keys {
		fmt.Println(i)
	}
}
