//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts, so allocation bounds that rely on pooled sessions do not
// hold.
const raceEnabled = true
