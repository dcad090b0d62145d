//go:build race

package transport

import (
	"runtime"
	"unsafe"
)

// raceWrite tells the race detector that the calling goroutine wrote b,
// which a raw readv(2) filled out of its sight: a goroutine that touches b
// afterwards without synchronising with this one is then reported, as
// after any other write.
func raceWrite(b []byte) {
	if len(b) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&b[0]), len(b))
	}
}
