// Package fixture holds one finding for errvet's module-level test.
package fixture

import (
	"net/http/httptest"
	"os"
)

// Serve closes a test server, whose Close returns nothing.
func Serve() {
	ts := httptest.NewServer(nil)
	ts.Close()
}

// Drop loses the error of an os.File's Close.
func Drop(f *os.File) {
	f.Close()
}
