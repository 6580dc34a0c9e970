package policy

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// This file parses the paper's simplified policy grammar (§IV-B Snippet 1)
// plus the contextual extension (context.go):
//
//	<POLICY> ::= {[<ACTION>] [<LEVEL>] [<TARGET>]}
//	           | {[risk] [<PREDICATE>] [<SPEC>] [<WEIGHT>]}
//	           | {[threshold] [(warn | block)] [<VALUE>]}
//	<ACTION> ::= (allow | deny)
//	<LEVEL>  ::= (hash | library | class | method)
//	<TARGET> ::= quoted string
//	<PREDICATE> ::= (time | network | posture | travel)
//	<SPEC>   ::= quoted string (predicate-specific, see context.go)
//	<WEIGHT> ::= integer (may be negative)
//
// Lines starting with // are comments; blank lines are ignored. Multi-line
// rules are supported because the paper's own examples wrap long method
// signatures across lines.
//
// Targets are Go-quoted strings: FormatPolicy renders them with %q and the
// parser unquotes with strconv.Unquote, so targets containing quotes,
// backslashes, braces, brackets or control characters survive a
// format→parse round trip byte-for-byte. Hand-written documents that are
// not valid Go string literals (e.g. a stray inner quote) keep the
// historical strip-the-outer-quotes behaviour.
//
// Parse errors name the line — or, for multi-line rules, the line range —
// of the offending rule, so one bad rule in a thousand-line policy file is
// locatable without bisecting the document.

// cutRule reads a single rule in any of the grammar's forms, dispatching
// on the first bracketed field, for Rule.parse to validate:
//
//	{[allow|deny][level]["target"]}       access rule (paper §IV-B)
//	{[risk][predicate]["spec"][weight]}   contextual risk predicate
//	{[threshold][warn|block][value]}      risk threshold
//
// The fields are cut from raw in place: the rule allocates nothing unless
// its target carries escapes, and its Target may point into raw.
func cutRule(raw string) (Rule, error) {
	s := strings.TrimSpace(raw)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return Rule{}, fmt.Errorf("%w: rule %q must be enclosed in braces", ErrBadRule, raw)
	}
	var fields [4]string
	n, err := cutFields(s[1:len(s)-1], &fields)
	if err != nil {
		return Rule{}, err
	}
	if n == 0 {
		return Rule{}, fmt.Errorf("%w: rule %q is empty", ErrBadRule, raw)
	}
	var rule Rule
	switch strings.TrimSpace(fields[0]) {
	case "risk":
		if n != 4 {
			return Rule{}, fmt.Errorf("%w: risk rule %q has %d fields, want 4", ErrBadRule, raw, n)
		}
		pred, err := ParsePredicate(strings.TrimSpace(fields[1]))
		if err != nil {
			return Rule{}, err
		}
		weight, err := strconv.Atoi(strings.TrimSpace(fields[3]))
		if err != nil {
			return Rule{}, fmt.Errorf("%w: risk weight %q is not an integer", ErrBadRule, fields[3])
		}
		rule = Rule{
			Kind:   KindRisk,
			Pred:   pred,
			Target: unquoteTarget(strings.TrimSpace(fields[2])),
			Weight: weight,
		}
	case "threshold":
		if n != 3 {
			return Rule{}, fmt.Errorf("%w: threshold rule %q has %d fields, want 3", ErrBadRule, raw, n)
		}
		kind, err := ParseThresholdKind(strings.TrimSpace(fields[1]))
		if err != nil {
			return Rule{}, err
		}
		value, err := strconv.Atoi(strings.TrimSpace(fields[2]))
		if err != nil {
			return Rule{}, fmt.Errorf("%w: threshold value %q is not an integer", ErrBadRule, fields[2])
		}
		rule = Rule{Kind: KindThreshold, Thresh: kind, Weight: value}
	default:
		if n != 3 {
			return Rule{}, fmt.Errorf("%w: rule %q has %d fields, want 3", ErrBadRule, raw, n)
		}
		action, err := ParseAction(strings.TrimSpace(fields[0]))
		if err != nil {
			return Rule{}, err
		}
		level, err := ParseLevel(strings.TrimSpace(fields[1]))
		if err != nil {
			return Rule{}, err
		}
		rule = Rule{Action: action, Level: level, Target: unquoteTarget(strings.TrimSpace(fields[2]))}
	}
	return rule, nil
}

// unquoteTarget strips the grammar's quoting from a target field. Quoted
// targets are Go string literals (the inverse of FormatPolicy's %q); fields
// that merely look quoted but are not a valid literal fall back to stripping
// the outer quotes, which is what the pre-Unquote parser always did.
func unquoteTarget(target string) string {
	if len(target) < 2 || !strings.HasPrefix(target, `"`) || !strings.HasSuffix(target, `"`) {
		return target
	}
	if unq, err := strconv.Unquote(target); err == nil {
		return unq
	}
	return target[1 : len(target)-1]
}

// cutFields cuts "[a][b][c]" into its bracketed fields, tolerating
// whitespace between brackets, and returns how many there are; the first
// len(fields) land in fields. Brackets inside quoted strings do not nest
// or terminate fields, and backslash escapes inside quotes are honoured so
// an escaped quote (\") does not flip the quote state.
func cutFields(s string, fields *[4]string) (int, error) {
	n := 0
	rest := strings.TrimSpace(s)
	for rest != "" {
		if rest[0] != '[' {
			return 0, fmt.Errorf("%w: expected '[' before field %d at %q", ErrBadRule, n+1, rest)
		}
		depth := 0
		end := -1
		inQuote := false
		escaped := false
		for i := 0; i < len(rest) && end < 0; i++ {
			if escaped {
				escaped = false
				continue
			}
			switch rest[i] {
			case '\\':
				escaped = inQuote
			case '"':
				inQuote = !inQuote
			case '[':
				if !inQuote {
					depth++
				}
			case ']':
				if !inQuote {
					if depth--; depth == 0 {
						end = i
					}
				}
			}
		}
		if end < 0 {
			return 0, fmt.Errorf("%w: unterminated '[' in field %d of %q", ErrBadRule, n+1, s)
		}
		if n < len(fields) {
			fields[n] = rest[1:end]
		}
		n++
		rest = strings.TrimSpace(rest[end+1:])
	}
	return n, nil
}

// maxLine bounds a document line: a longer one fails with the read error
// of the bufio.Scanner the grammar used to read lines with.
const maxLine = 1024 * 1024

// scanDocument is the policy document scanner: one pass over doc, cutting
// each rule's text in place and parsing it once. It hands each rule, with
// its parsed target, to rule in document order. A rule may span multiple
// lines; its trimmed fragments are accumulated until braces balance
// outside quoted strings. A // comment is recognized only outside quotes
// and outside a rule body, so targets containing slashes (or even "//")
// never truncate a rule. When directive is non-nil, each //@ line that
// lies outside a rule body goes to it — its line number and the text
// after //@ — instead of being a comment; an error from directive ends
// the scan. Lines end at \n, with one trailing \r dropped.
func scanDocument(doc string, rule func(Rule, ruleTarget), directive func(lineNo int, text string) error) error {
	var (
		depth, lineNo int
		inQuote       bool
		startLine     int    // first line of the pending rule
		pending       string // the pending rule's text: a cut of doc on one line
	)
	for rest := doc; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if len(line) >= maxLine {
			return fmt.Errorf("policy: read: %w", bufio.ErrTooLong)
		}
		line = strings.TrimSuffix(line, "\r")
		lineNo++
		// Directive lines are only recognized between rules: at depth 0,
		// outside quotes (no rule is pending there).
		if directive != nil && depth == 0 && !inQuote {
			if text, ok := strings.CutPrefix(strings.TrimSpace(line), "//@"); ok {
				if err := directive(lineNo, text); err != nil {
					return err
				}
				continue
			}
		}
		// One pass over the line: track quote state (with \-escapes) and
		// brace depth, and cut a // comment when one appears outside quotes
		// at depth 0 (before a rule or after one — never inside).
		cut := len(line)
		escaped := false
	scan:
		for i := 0; i < len(line); i++ {
			if escaped {
				escaped = false
				continue
			}
			switch line[i] {
			case '\\':
				escaped = inQuote
			case '"':
				inQuote = !inQuote
			case '/':
				if !inQuote && depth == 0 && i+1 < len(line) && line[i+1] == '/' {
					cut = i
					break scan
				}
			case '{':
				if !inQuote {
					depth++
				}
			case '}':
				if !inQuote {
					if depth--; depth < 0 {
						return fmt.Errorf("%w: line %d: unbalanced '}'", ErrBadRule, lineNo)
					}
				}
			}
		}
		frag := strings.TrimSpace(line[:cut])
		switch {
		case frag == "":
			continue
		case pending == "":
			startLine, pending = lineNo, frag
		default:
			pending += frag // a rule spanning lines
		}
		if depth == 0 && !inQuote {
			parsed, err := cutRule(pending)
			var t ruleTarget
			if err == nil {
				t, err = parsed.parse()
			}
			if err != nil {
				return fmt.Errorf("%s: %w", lineRef(startLine, lineNo), err)
			}
			rule(parsed, t)
			pending = ""
		}
	}
	if pending != "" {
		if inQuote {
			return fmt.Errorf("%w: %s: unterminated quote at EOF", ErrBadRule, lineRef(startLine, lineNo))
		}
		return fmt.Errorf("%w: %s: unterminated rule at EOF", ErrBadRule, lineRef(startLine, lineNo))
	}
	return nil
}

// lineRef renders "line 7" or, for a rule spanning lines, "lines 7-9".
func lineRef(start, end int) string {
	if start == end {
		return fmt.Sprintf("line %d", start)
	}
	return fmt.Sprintf("lines %d-%d", start, end)
}

// ParsePolicyString reads a full policy document — one or more rules,
// //-comments, and blank lines — into its rules. One scanner serves
// ParsePolicyString, ParseGroupSet and Compile; to ParsePolicyString a //@
// line is a comment.
func ParsePolicyString(s string) ([]Rule, error) {
	var rules []Rule
	if err := scanDocument(s, func(r Rule, _ ruleTarget) { rules = append(rules, r) }, nil); err != nil {
		return nil, err
	}
	return rules, nil
}

// FormatPolicy renders rules back into a parseable policy document.
func FormatPolicy(rules []Rule) string {
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
