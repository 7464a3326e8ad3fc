// Package broken does not type-check.
package broken

// N is not an int.
var N int = "n"
