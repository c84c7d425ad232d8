// Package xmldoctest tests a dialect's decoder against an oracle, the
// dialect's structs decoded by encoding/xml: on every document of the
// dialect written in the repository, on rewrites of each that exercise
// every XML feature a well-formed document may use, and in a fuzz target.
package xmldoctest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// A DecodeFunc reads one document into a dialect's structs.
type DecodeFunc[T any] func(doc string) (*T, error)

// Sound decodes doc and, when decode accepts it, checks that oracle
// accepts it too, with an equal value. It reports whether decode accepted.
func Sound[T any](t *testing.T, doc string, decode, oracle DecodeFunc[T]) bool {
	t.Helper()
	got, err := decode(doc)
	if err != nil {
		return false
	}
	want, err := oracle(doc)
	if err != nil {
		t.Fatalf("the decoder accepts what the oracle rejects (%v):\n%q", err, doc)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the decoder read %+v,\nthe oracle %+v,\nfrom %q", got, want, doc)
	}
	return true
}

// MatchesOracle checks that decode reads every document of the corpus
// (those containing marker) that oracle accepts, and every variant of
// each, as oracle does, and accepts no document of the corpus that oracle
// rejects.
func MatchesOracle[T any](t *testing.T, marker string, decode, oracle DecodeFunc[T]) {
	bases := 0
	for _, base := range Corpus(t, marker) {
		if _, err := oracle(base); err != nil {
			Sound(t, base, decode, oracle)
			continue
		}
		bases++
		for _, doc := range append([]string{base}, Variants(base)...) {
			if _, err := oracle(doc); err != nil {
				t.Fatalf("the oracle rejects a variant (%v):\n%s", err, doc)
			}
			if !Sound(t, doc, decode, oracle) {
				_, err := decode(doc)
				t.Errorf("the decoder rejects a well-formed document (%v):\n%s", err, doc)
			}
		}
	}
	if bases < 10 {
		t.Errorf("the corpus holds %d well-formed documents, want at least 10", bases)
	}
}

// Seeds returns a fuzz target's seed corpus: the documents of the corpus,
// and the variants of each that oracle accepts.
func Seeds[T any](tb testing.TB, marker string, oracle DecodeFunc[T]) []string {
	var seeds []string
	for _, doc := range Corpus(tb, marker) {
		seeds = append(seeds, doc)
		if _, err := oracle(doc); err == nil {
			seeds = append(seeds, Variants(doc)...)
		}
	}
	return seeds
}

// Corpus returns every document in the repository that contains marker,
// such as "<ComponentDefinitions": the .xml files and the string literals
// of the Go files, sorted and without repeats.
func Corpus(tb testing.TB, marker string) []string {
	tb.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		tb.Fatal(err)
	}
	for { // the module root: the nearest directory above with a go.mod
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			tb.Fatal("no go.mod above the working directory")
		}
		root = parent
	}
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".xml":
			b, err := os.ReadFile(path)
			if err == nil && strings.Contains(string(b), marker) {
				seen[string(b)] = true
			}
			return err
		case ".go":
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, marker) {
						seen[s] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	docs := make([]string, 0, len(seen))
	for s := range seen {
		docs = append(docs, s)
	}
	sort.Strings(docs)
	return docs
}

// A part is a piece of a document: a run of text, or one piece of markup.
type part struct {
	s    string
	kind byte // 't' text, '<' start tag, '/' end tag, 'e' empty-element tag, 'm' comment, PI or CDATA
}

// split cuts a well-formed document without '>' in its attribute values
// into parts.
func split(doc string) []part {
	var parts []part
	for doc != "" {
		var n int
		kind := byte('<')
		switch {
		case doc[0] != '<':
			n, kind = strings.IndexByte(doc, '<'), 't'
			if n < 0 {
				n = len(doc)
			}
		case strings.HasPrefix(doc, "<!--"):
			n, kind = strings.Index(doc, "-->")+3, 'm'
		case strings.HasPrefix(doc, "<![CDATA["):
			n, kind = strings.Index(doc, "]]>")+3, 'm'
		case strings.HasPrefix(doc, "<?"):
			n, kind = strings.Index(doc, "?>")+2, 'm'
		default:
			n = strings.IndexByte(doc, '>') + 1
			if doc[1] == '/' {
				kind = '/'
			} else if doc[n-2] == '/' {
				kind = 'e'
			}
		}
		parts = append(parts, part{doc[:n], kind})
		doc = doc[n:]
	}
	return parts
}

// scalar reports whether text reads as an integer or a boolean.
func scalar(text string) bool {
	t := strings.TrimSpace(text)
	_, errI := strconv.ParseInt(t, 10, 64)
	_, errB := strconv.ParseBool(t)
	return errI == nil || errB == nil
}

// rewrite rebuilds doc with f applied to each part and to the part after
// it (kind 0 past the end).
func rewrite(doc string, f func(p, next part) string) string {
	parts := split(doc)
	var b strings.Builder
	for i, p := range parts {
		var next part
		if i+1 < len(parts) {
			next = parts[i+1]
		}
		b.WriteString(f(p, next))
	}
	return b.String()
}

// rewrites add one feature of well-formed XML each to a document. They
// may change what it says, for encoding/xml and the decoder under test to
// agree on. The last one writes '>' inside attribute values, which split
// does not read.
var rewrites = []func(string) string{
	// Numbers and booleans emptied, then empty elements written <X/>.
	func(doc string) string {
		parts := split(doc)
		var b strings.Builder
		for i := 0; i < len(parts); i++ {
			p := parts[i]
			if i+1 < len(parts) && p.kind == 't' && parts[i+1].kind == '/' && scalar(p.s) {
				continue
			}
			if i+1 < len(parts) && p.kind == '<' && parts[i+1].kind == '/' {
				b.WriteString(p.s[:len(p.s)-1] + "/>")
				i++
				continue
			}
			b.WriteString(p.s)
		}
		return b.String()
	},
	// A comment and a processing instruction after every tag.
	func(doc string) string {
		return rewrite(doc, func(p, _ part) string {
			if p.kind == 't' || p.kind == 'm' {
				return p.s
			}
			return p.s + "<!-- note: a > b, - -->" + "<?tool run -x?>"
		})
	},
	// Text in CDATA sections, and an empty one.
	func(doc string) string {
		return rewrite(doc, func(p, _ part) string {
			if p.kind != 't' || strings.TrimSpace(p.s) == "" || strings.Contains(p.s, "&") {
				return p.s
			}
			half := len(p.s) / 2
			for !utf8.RuneStart(p.s[half]) {
				half++
			}
			return "<![CDATA[" + p.s[:half] + "]]><![CDATA[]]>" + p.s[half:]
		})
	},
	// Character references for letters and digits, and the five named
	// entities after text that is not a number or a boolean.
	func(doc string) string {
		return rewrite(doc, func(p, _ part) string {
			if p.kind != 't' || strings.Contains(p.s, "&") {
				return p.s
			}
			var b strings.Builder
			for i, r := range p.s {
				switch {
				case r > 127 || r <= ' ':
					b.WriteRune(r)
				case i%2 == 0:
					b.WriteString("&#" + strconv.Itoa(int(r)) + ";")
				default:
					b.WriteString("&#x" + strconv.FormatInt(int64(r), 16) + ";")
				}
			}
			if strings.TrimSpace(p.s) != "" && !scalar(p.s) {
				b.WriteString("&lt;&gt;&amp;&apos;&quot;")
			}
			return b.String()
		})
	},
	// Unknown elements, with subtrees, after every start tag.
	func(doc string) string {
		return rewrite(doc, func(p, _ part) string {
			if p.kind != '<' {
				return p.s
			}
			return p.s + `<Extra kind="1"><Inner>text &amp; more<Deeper/></Inner><!-- c --><Extra>again</Extra></Extra>`
		})
	},
	// CRLF line ends, blanks inside tags and around every text value.
	func(doc string) string {
		doc = rewrite(doc, func(p, next part) string {
			switch {
			case p.kind == 't' && next.kind == '/':
				return " \t\r\n" + p.s + "\r \n"
			case p.kind == '<':
				return p.s[:len(p.s)-1] + "\n\t>"
			case p.kind == '/':
				return p.s[:len(p.s)-1] + " \r\n>"
			}
			return p.s
		})
		return strings.ReplaceAll(doc, "\n", "\r\n")
	},
	// Attributes on every start tag, spaced and quoted both ways.
	func(doc string) string {
		return rewrite(doc, func(p, _ part) string {
			switch p.kind {
			case '<':
				return p.s[:len(p.s)-1] + ` id="a&amp;b&#65;" note = 'x > y' >`
			case 'e':
				return p.s[:len(p.s)-2] + ` id="1"/>`
			}
			return p.s
		})
	},
}

// prologs are put before a document: a byte-order mark, an XML
// declaration, or both.
var prologs = []string{
	"\uFEFF",
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n",
	"\uFEFF<?xml version='1.0' encoding='utf-8' standalone='yes' ?>\r\n",
}

// Variants returns one rewrite of doc for each feature, then one with all
// of them applied in turn. doc must be well-formed, with no '>' inside an
// attribute value.
func Variants(doc string) []string {
	var out []string
	all := doc
	for _, f := range rewrites {
		out = append(out, f(doc))
		all = f(all)
	}
	for _, p := range prologs {
		out = append(out, p+doc)
	}
	return append(out, prologs[len(prologs)-1]+all)
}
