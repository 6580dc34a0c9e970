package policy

import "borderpatrol/internal/dex"

// The random corpus generators of compile_test.go, for the tests against
// the reference model, which live outside the package.
var (
	RandRule  = randRule
	RandHash  = randHash
	RandStack = randStack
)

// DecisiveIndex returns the index of the rule the compiled form of e's rule
// set finds decisive, -1 for the default.
func DecisiveIndex(e *Engine, appHash dex.TruncatedHash, stack []dex.Signature) int {
	c := e.compiled.Load()
	if i := c.evaluate(appHash, stack); i < len(c.rules) {
		return i
	}
	return -1
}
