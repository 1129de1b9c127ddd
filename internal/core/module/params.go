package module

import (
	"fmt"
	"strconv"
	"time"
)

// ParamReader turns a module's configuration parameters (strings, as
// the configuration file has them) into values: each read returns the
// parsed parameter, or the default when it is absent. The first value
// that does not parse is kept as "<name>: <parse error>" and reported
// by Done. Names a constructor does not read are ignored (the paper's
// Fig. 6 passes TrafficStatsModule thresholds it never reads).
type ParamReader struct {
	params map[string]string
	err    error
}

// ReadParams starts reading a Factory's parameters.
func ReadParams(params map[string]string) *ParamReader { return &ParamReader{params: params} }

func readParam[T any](p *ParamReader, name string, def T, parse func(string) (T, error)) T {
	s, ok := p.params[name]
	if !ok {
		return def
	}
	v, err := parse(s)
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("%s: %w", name, err)
		}
		return def
	}
	return v
}

// Duration reads a Go duration ("5s").
func (p *ParamReader) Duration(name string, def time.Duration) time.Duration {
	return readParam(p, name, def, time.ParseDuration)
}

// Int reads a decimal integer.
func (p *ParamReader) Int(name string, def int) int {
	return readParam(p, name, def, strconv.Atoi)
}

// IntAtLeast reads a decimal integer no smaller than least; a smaller
// one is refused as a value that does not parse.
func (p *ParamReader) IntAtLeast(name string, def, least int) int {
	return readParam(p, name, def, func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err == nil && v < least {
			err = fmt.Errorf("%d is below %d", v, least)
		}
		return v, err
	})
}

// Float reads a floating-point number.
func (p *ParamReader) Float(name string, def float64) float64 {
	return readParam(p, name, def, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

// Bool reads a boolean ("true", "false", "1", "0", …).
func (p *ParamReader) Bool(name string, def bool) bool {
	return readParam(p, name, def, strconv.ParseBool)
}

// Done ends a Factory: the module built from the parameters read, or
// the first one that did not parse.
func (p *ParamReader) Done(m Module) (Module, error) {
	if p.err != nil {
		return nil, p.err
	}
	return m, nil
}
