package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
)

// digestServed reads a SPARQL JSON results document into a digest. It
// is a small hand-written scanner rather than encoding/json, because
// verification decodes whole-graph answers of hundreds of thousands of
// bindings and reflection-driven decoding dominated the run.
func digestServed(body []byte, seed maphash.Seed, ordered bool) (digest, error) {
	s := &scanner{b: body}
	var d digest
	sawResults := false
	err := s.object(func(key string) error {
		switch key {
		case "head":
			return s.object(func(k string) error {
				if k != "vars" {
					return s.skip()
				}
				if s.lit("null") {
					return nil
				}
				return s.array(func() error {
					v, err := s.str()
					d.vars = append(d.vars, v)
					return err
				})
			})
		case "boolean":
			d.isAsk = true
			switch {
			case s.lit("true"):
				d.boolean = true
			case s.lit("false"):
			default:
				return s.fail("boolean")
			}
			return nil
		case "results":
			sawResults = true
			rh := newRowHasher(seed, ordered)
			cells := make([]string, len(d.vars))
			return s.object(func(k string) error {
				if k != "bindings" {
					return s.skip()
				}
				return s.array(func() error {
					clear(cells) // a variable without a binding stays "", eval.Unbound
					err := s.object(func(name string) error {
						col := slices.Index(d.vars, name)
						var typ, val string
						err := s.object(func(f string) error {
							var err error
							switch f {
							case "type":
								typ, err = s.str()
							case "value":
								val, err = s.str()
							default:
								err = s.skip()
							}
							return err
						})
						if err != nil {
							return err
						}
						if col < 0 {
							return fmt.Errorf("binding for undeclared variable %q", name)
						}
						if typ == "bnode" {
							val = "_:" + val
						}
						cells[col] = val
						return nil
					})
					d.rows++
					d.hash = rh.add(d.hash, cells)
					return err
				})
			})
		default:
			return s.skip()
		}
	})
	if err != nil {
		return d, err
	}
	if d.isAsk {
		d.vars = nil
	} else if !sawResults {
		return d, errors.New("neither boolean nor results")
	}
	return d, nil
}

// scanner is a minimal JSON reader over a complete document.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("malformed JSON at byte %d: expected %s", s.i, what)
}

func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) lit(word string) bool {
	s.ws()
	if len(s.b)-s.i >= len(word) && string(s.b[s.i:s.i+len(word)]) == word {
		s.i += len(word)
		return true
	}
	return false
}

// object reads {"key": value, ...}, calling field to read each value.
func (s *scanner) object(field func(key string) error) error {
	if !s.eat('{') {
		return s.fail("{")
	}
	if s.eat('}') {
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if !s.eat(':') {
			return s.fail(":")
		}
		if err := field(key); err != nil {
			return err
		}
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return nil
		}
		return s.fail(", or }")
	}
}

// array reads [value, ...], calling elem to read each value.
func (s *scanner) array(elem func() error) error {
	if !s.eat('[') {
		return s.fail("[")
	}
	if s.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return nil
		}
		return s.fail(", or ]")
	}
}

// str reads a string, handing escaped ones to encoding/json.
func (s *scanner) str() (string, error) {
	if !s.eat('"') {
		return "", s.fail("string")
	}
	start, escaped := s.i, false
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			escaped = true
			s.i += 2
			continue
		case '"':
			raw := s.b[start:s.i]
			s.i++
			if !escaped {
				return string(raw), nil
			}
			var out string
			err := json.Unmarshal(s.b[start-1:s.i], &out)
			return out, err
		}
		s.i++
	}
	return "", s.fail("closing quote")
}

// skip reads and discards any value.
func (s *scanner) skip() error {
	s.ws()
	if s.i >= len(s.b) {
		return s.fail("value")
	}
	switch s.b[s.i] {
	case '{':
		return s.object(func(string) error { return s.skip() })
	case '[':
		return s.array(s.skip)
	case '"':
		_, err := s.str()
		return err
	}
	for s.i < len(s.b) && !slices.Contains([]byte(",}] \t\r\n"), s.b[s.i]) {
		s.i++
	}
	return nil
}
