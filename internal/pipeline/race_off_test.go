//go:build !race

package pipeline

// raceEnabled reports a -race build; see TestResetMatchesNew.
const raceEnabled = false
