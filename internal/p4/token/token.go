// Package token defines the lexical tokens of the P4-16 subset accepted by
// bf4's frontend, plus source positions used in diagnostics.
package token

import "fmt"

// Kind identifies a token class.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT  // ipv4_lpm
	INT    // 10, 0xff, 8w255 (width-prefixed)
	STRING // "..." (annotations only)

	// Operators and punctuation.
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACKET  // [
	RBRACKET  // ]
	LANGLE    // <
	RANGLE    // >
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	DOT       // .
	ASSIGN    // =
	AT        // @
	QUESTION  // ?

	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	AMP     // &
	PIPE    // |
	CARET   // ^
	TILDE   // ~
	NOT     // !

	SHL // <<
	SHR // >>
	EQ  // ==
	NEQ // !=
	LEQ // <=
	GEQ // >=
	AND // &&
	OR  // ||

	PLUSPLUS // ++ (concatenation)
	ARROW    // -> (implication; property predicates only)

	// Keywords.
	KwAction
	KwActions
	KwApply
	KwBit
	KwBool
	KwConst
	KwControl
	KwDefault
	KwDefaultAction
	KwElse
	KwEntries
	KwEnum
	KwError
	KwExit
	KwFalse
	KwHeader
	KwIf
	KwIn
	KwInout
	KwKey
	KwOut
	KwPackage
	KwParser
	KwRegister
	KwReturn
	KwSize
	KwState
	KwStruct
	KwSwitch
	KwTable
	KwTransition
	KwTrue
	KwTypedef
	KwVarbit
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", INT: "INT", STRING: "STRING",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACKET: "[",
	RBRACKET: "]", LANGLE: "<", RANGLE: ">", COMMA: ",", SEMICOLON: ";",
	COLON: ":", DOT: ".", ASSIGN: "=", AT: "@", QUESTION: "?", PLUS: "+",
	MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%", AMP: "&", PIPE: "|",
	CARET: "^", TILDE: "~", NOT: "!", SHL: "<<", SHR: ">>", EQ: "==",
	NEQ: "!=", LEQ: "<=", GEQ: ">=", AND: "&&", OR: "||", PLUSPLUS: "++",
	ARROW: "->", KwAction: "action", KwActions: "actions", KwApply: "apply",
	KwBit: "bit", KwBool: "bool", KwConst: "const", KwControl: "control",
	KwDefault: "default", KwDefaultAction: "default_action", KwElse: "else",
	KwEntries: "entries", KwEnum: "enum", KwError: "error", KwExit: "exit",
	KwFalse: "false", KwHeader: "header", KwIf: "if", KwIn: "in",
	KwInout: "inout", KwKey: "key", KwOut: "out", KwPackage: "package",
	KwParser: "parser", KwRegister: "register", KwReturn: "return",
	KwSize: "size", KwState: "state", KwStruct: "struct", KwSwitch: "switch",
	KwTable: "table", KwTransition: "transition", KwTrue: "true",
	KwTypedef: "typedef", KwVarbit: "varbit",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to kinds.
var Keywords = map[string]Kind{
	"action": KwAction, "actions": KwActions, "apply": KwApply,
	"bit": KwBit, "bool": KwBool, "const": KwConst, "control": KwControl,
	"default": KwDefault, "default_action": KwDefaultAction, "else": KwElse,
	"entries": KwEntries, "enum": KwEnum, "error": KwError, "exit": KwExit,
	"false": KwFalse, "header": KwHeader, "if": KwIf, "in": KwIn,
	"inout": KwInout, "key": KwKey, "out": KwOut, "package": KwPackage,
	"parser": KwParser, "register": KwRegister, "return": KwReturn,
	"size": KwSize, "state": KwState, "struct": KwStruct,
	"switch": KwSwitch, "table": KwTable, "transition": KwTransition,
	"true": KwTrue, "typedef": KwTypedef, "varbit": KwVarbit,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position is set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a lexeme with its kind and position. For INT tokens, Lit holds
// the raw spelling (including any width prefix such as "8w255").
type Token struct {
	Kind Kind
	Lit  string
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, STRING:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}
