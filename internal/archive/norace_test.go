//go:build !race

package archive_test

const raceEnabled = false
