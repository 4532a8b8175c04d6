//go:build poison

package types

// Built with -tags poison (make poison), every binary runs its decoders and
// its joins in poison mode.
func init() { Poison = true }
