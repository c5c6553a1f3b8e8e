//go:build race

package main

// raceEnabled: see race_off_test.go.
const raceEnabled = true
