// Fixture for go vet's copylocks check, the one check of lock copies in
// this repository: values of lock-containing types being copied (each line
// marked want) next to the pointer-shaped patterns that are fine (the clean
// half). TestVetCopyLocksFixture in package lint runs go vet on it.
package fixture

import (
	"sync"

	"multiclust/internal/obs"
)

// jobState embeds a mutex indirectly: copying it forks the lock.
type jobState struct {
	mu   sync.Mutex
	runs int
}

// nested contains a lock two levels down.
type nested struct {
	inner jobState
}

func byValueParam(s jobState) int { // want `byValueParam passes lock by value`
	return s.runs
}

func byValueCollector(c obs.Collector) { // want `byValueCollector passes lock by value`
	_ = c // want `assignment copies lock value to _`
}

func assignCopy() {
	var a jobState
	b := a // want `assignment copies lock value to b`
	_ = b  // want `assignment copies lock value to _`
}

func declCopy() {
	var a nested
	var b = a // want `variable declaration copies lock value to b`
	_ = b     // want `assignment copies lock value to _`
}

func derefCopy(p *jobState) {
	v := *p // want `assignment copies lock value to v`
	_ = v   // want `assignment copies lock value to _`
}

func rangeCopy(states []jobState) int {
	total := 0
	for _, s := range states { // want `range var s copies lock`
		total += s.runs
	}
	return total
}

func returnCopy(p *jobState) jobState {
	return *p // want `return copies lock value`
}

func argCopy(states []jobState) int {
	return byValueParam(states[0]) // want `call of byValueParam copies lock value`
}

func (s jobState) valueReceiver() int { // want `valueReceiver passes lock by value`
	return s.runs
}

type counter struct{ n int }

// methodOnValue is fine: counter holds no lock.
func (c counter) methodOnValue() int { return c.n }

// Pointer-shaped patterns: all clean.
func pointerParam(s *jobState) int { return s.runs }

func freshValue() *jobState {
	var s jobState // fresh construction, no prior lock state
	return &s
}

func freshLiteral() *nested {
	n := nested{}
	return &n
}

func pointerRange(states []*jobState) int {
	total := 0
	for _, s := range states {
		total += s.runs
	}
	return total
}

func indexRange(states []jobState) int {
	total := 0
	for i := range states {
		total += states[i].runs
	}
	return total
}

func addressOf() *jobState {
	s := jobState{}
	p := &s
	return p
}

func collectorPointer(c *obs.Collector) { _ = c }
