package xq

import "errors"

// ErrNoVariable reports that Extent was asked for an XQ-Tree node that
// binds no variable (a pure constructor node has no extent). Callers
// match it with errors.Is; the wrapped message names the offending node.
var ErrNoVariable = errors.New("xq: node binds no variable")

// ErrNoBindingPath reports that Extent met a variable in the binding
// chain that has no binding path, so its candidates cannot be
// enumerated. Both the compiled and the naive path return it.
var ErrNoBindingPath = errors.New("xq: variable has no binding path")
