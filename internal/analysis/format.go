package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// FormatCallArg maps fmt-style formatting functions onto the index of
// their format-string argument, for detflow's float-verb rule (errwrap
// checks only fmt.Errorf, whose format comes first).
var FormatCallArg = map[string]int{
	"Sprintf": 0, "Errorf": 0, "Printf": 0,
	"Fprintf": 1, "Appendf": 1,
}

// Verb is one parsed format directive and the index of the argument it
// consumes.
type Verb struct {
	Verb     rune
	ArgIndex int
}

// FormatLiteral extracts the unquoted format string of a fmt-style call
// whose format argument sits at index fmtArg, along with the trailing
// operand expressions. It returns ok=false when the format is not a
// string literal (dynamic formats are out of reach for static verb
// pairing).
func FormatLiteral(call *ast.CallExpr, fmtArg int) (format string, operands []ast.Expr, ok bool) {
	if len(call.Args) <= fmtArg {
		return "", nil, false
	}
	lit, isLit := ast.Unparen(call.Args[fmtArg]).(*ast.BasicLit)
	if !isLit {
		return "", nil, false
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", nil, false
	}
	return format, call.Args[fmtArg+1:], true
}

// ParseVerbs walks a fmt format string, pairing verbs with sequential
// argument indexes. Explicit argument indexes (%[1]v) abort the parse
// and return nil — none appear in this codebase, and a partial mapping
// would misattribute findings.
func ParseVerbs(format string) []Verb {
	var out []Verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && strings.ContainsRune("+-# 0123456789.*", rune(format[i])) {
			if format[i] == '*' {
				arg++ // star width/precision consumes an argument
			}
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			continue
		case '[':
			return nil // explicit argument index: bail out
		default:
			out = append(out, Verb{Verb: rune(format[i]), ArgIndex: arg})
			arg++
		}
	}
	return out
}
