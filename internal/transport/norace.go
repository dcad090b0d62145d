//go:build !race

package transport

func raceWrite([]byte) {}
