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

// ParseRule parses one rule, for the tests of the grammar.
func ParseRule(raw string) (Rule, error) {
	r, err := cutRule(raw)
	if err == nil {
		err = r.Validate()
	}
	if err != nil {
		return Rule{}, err
	}
	return r, nil
}

// SetRules compiles rules the test holds and publishes them on e.
func (e *Engine) SetRules(rules []Rule) error {
	c, err := compileRules(rules)
	if err != nil {
		return err
	}
	e.Publish(c)
	return nil
}
