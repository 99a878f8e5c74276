package sim

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic the engine converted into an error: one
// panicking grid point (or Finish hook) fails its own call, named via
// the usual wrapping, instead of killing the whole process and every
// in-flight sibling task with it.
type PanicError struct {
	// Value is what the task passed to panic().
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// runShielded calls fn behind a panic shield: a panic comes back as a
// *PanicError carrying the stack, so the worker pool — and sibling
// tasks — keep running. Task runs and Finish hooks both go through it.
func runShielded[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return fn()
}
