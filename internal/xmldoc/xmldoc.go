// Package xmldoc reads the XML documents of the CDL and CCL dialects: a
// cursor over one document's text that walks its elements in order, with
// no reflection and no allocation per token. A dialect opens the document
// on its root element and, for each child Next returns, switches on Name
// and either descends (a loop of Next), reads the element's text (Text,
// Int, Int64, Bool) or skips it with its subtree (Skip).
//
// encoding/xml, decoding into the dialects' tagged structs, is the test
// oracle: whatever this package accepts, it accepts with the same value.
// This package is stricter in a few places that no CDL or CCL document
// needs: it refuses namespaces (a ':' in a name or an xmlns attribute),
// names outside ASCII, DOCTYPE and other directives, text other than
// whitespace around the root element, and nesting deeper than MaxDepth.
package xmldoc

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// MaxDepth bounds how deeply elements may nest, the root counting as one.
// encoding/xml stops at an unmarshalling depth of 10,000, which counts at
// most two per element.
const MaxDepth = 1000

// SyntaxError reports a document this package cannot read and the 1-based
// line where the fault was found.
type SyntaxError struct {
	Msg  string
	Line int
}

func (e *SyntaxError) Error() string {
	return "XML syntax error on line " + strconv.Itoa(e.Line) + ": " + e.Msg
}

// Decoder is a cursor over one document. After Next returns true the
// caller consumes that element with exactly one of Text, Int, Int64, Bool,
// Skip, or a loop of Next that runs until it returns false.
type Decoder struct {
	doc   string
	pos   int
	stack []string // names of the open elements, the root first
	empty bool     // the element on top of the stack was written <name/>
	err   error

	// Text collects the element's character data here: one piece is kept
	// as a slice of doc, more are joined in buf.
	text   string
	pieces int
	buf    []byte
}

// Open reads the whole document from r and positions the decoder inside
// its root element, which must be named root.
func Open(r io.Reader, root string) (*Decoder, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	d := &Decoder{doc: sb.String()}
	if at, msg := checkChars(d.doc); msg != "" {
		d.fail(at, msg)
		return nil, d.err
	}
	if strings.HasPrefix(d.doc, "\uFEFF") {
		d.pos = len("\uFEFF")
	}
	if rest := d.doc[d.pos:]; strings.HasPrefix(rest, "<?xml") && len(rest) > 5 && (isSpace(rest[5]) || rest[5] == '?') {
		end := strings.Index(rest, "?>")
		if end < 0 || !declOK(rest[5:end]) {
			d.fail(d.pos, "malformed XML declaration: only version 1.0 in UTF-8 is read")
			return nil, d.err
		}
		d.pos += end + 2
	}
	if !d.misc() {
		return nil, d.err
	}
	at, rest := d.pos, d.doc[d.pos:]
	if rest == "" || rest[0] != '<' || strings.HasPrefix(rest, "</") || strings.HasPrefix(rest, "<!") {
		d.fail(at, "expected the root element <"+root+">")
		return nil, d.err
	}
	if d.startTag() && d.stack[0] != root {
		d.fail(at, "expected element type <"+root+"> but have <"+d.stack[0]+">")
	}
	if d.err != nil {
		return nil, d.err
	}
	return d, nil
}

// Next moves to the next child of the current element and reports whether
// there is one; at the current element's end tag it consumes the tag and
// returns false, as it does once an error has occurred.
func (d *Decoder) Next() bool { return d.scan(false) }

// Name returns the name of the element Next last moved to.
func (d *Decoder) Name() string { return d.stack[len(d.stack)-1] }

// Skip consumes the current element with everything inside it.
func (d *Decoder) Skip() {
	for d.scan(false) {
		d.Skip()
	}
}

// Text consumes the current element and returns its character data, text
// and CDATA joined as they come, with comments, processing instructions
// and child elements left out. It is not trimmed.
func (d *Decoder) Text() string {
	d.text, d.pieces = "", 0
	for d.scan(true) {
		d.Skip()
	}
	if d.pieces > 1 {
		return string(d.buf)
	}
	return d.text
}

// Int reads the current element as a decimal int, blanks around it
// trimmed; an empty element reads as 0.
func (d *Decoder) Int() int { return int(d.parseInt(strconv.IntSize)) }

// Int64 reads the current element as a decimal int64, as Int does.
func (d *Decoder) Int64() int64 { return d.parseInt(64) }

func (d *Decoder) parseInt(bits int) int64 {
	at, name := d.pos, d.Name()
	s := d.Text()
	if s == "" {
		return 0
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, bits)
	if err != nil {
		d.fail(at, "<"+name+">: "+err.Error())
	}
	return v
}

// Bool reads the current element as strconv.ParseBool does, blanks around
// it trimmed; an empty element reads as false.
func (d *Decoder) Bool() bool {
	at, name := d.pos, d.Name()
	s := d.Text()
	if s == "" {
		return false
	}
	v, err := strconv.ParseBool(strings.TrimSpace(s))
	if err != nil {
		d.fail(at, "<"+name+">: "+err.Error())
	}
	return v
}

// End reads what follows the root element, which may be only whitespace,
// comments and processing instructions, and returns the first error the
// decoder met.
func (d *Decoder) End() error {
	if d.err == nil && d.misc() && d.pos < len(d.doc) {
		d.fail(d.pos, "content after the root element")
	}
	return d.err
}

// scan reads the current element's content up to its next child, which it
// opens, or its end tag, which it consumes. With collect set, the
// character data on the way is added to the text.
func (d *Decoder) scan(collect bool) bool {
	if d.err != nil || len(d.stack) == 0 {
		return false
	}
	if d.empty {
		d.empty = false
		d.stack = d.stack[:len(d.stack)-1]
		return false
	}
	for {
		i := strings.IndexByte(d.doc[d.pos:], '<')
		if i < 0 {
			return d.fail(len(d.doc), "unexpected EOF")
		}
		if i > 0 {
			s := d.doc[d.pos : d.pos+i]
			if j := strings.Index(s, "]]>"); j >= 0 {
				return d.fail(d.pos+j, "unescaped ]]> not in CDATA section")
			}
			special := "&"
			if collect {
				special = "&\r"
			}
			if !d.chars(d.pos, s, special, collect) {
				return false
			}
			d.pos += i
		}
		switch rest := d.doc[d.pos:]; {
		case strings.HasPrefix(rest, "</"):
			d.endTag()
			return false
		case strings.HasPrefix(rest, "<![CDATA["):
			end := strings.Index(rest, "]]>")
			if end < 0 {
				return d.fail(len(d.doc), "unexpected EOF in CDATA section")
			}
			if collect {
				d.chars(d.pos+9, rest[9:end], "\r", true)
			}
			d.pos += end + 3
		case strings.HasPrefix(rest, "<!--") || strings.HasPrefix(rest, "<?"):
			if !d.comment() {
				return false
			}
		case strings.HasPrefix(rest, "<!"):
			return d.fail(d.pos, "directives such as <!DOCTYPE> are not read")
		default:
			return d.startTag()
		}
	}
}

// chars checks the character data s, found at offset at, and adds it to
// the text when collect is set. Each byte of special it meets is a CR,
// read with an LF after it as one LF, or the & of a reference, read as the
// character it names.
func (d *Decoder) chars(at int, s, special string, collect bool) bool {
	for s != "" {
		j := strings.IndexAny(s, special)
		if j < 0 {
			j = len(s)
		}
		if collect {
			d.add(s[:j])
		}
		if j == len(s) {
			break
		}
		n := 1
		if s[j] == '\r' {
			if strings.HasPrefix(s[j:], "\r\n") {
				n = 2
			}
			if collect {
				d.add("\n")
			}
		} else {
			var r rune
			if r, n = ref(s[j:]); n == 0 {
				end := min(len(s), j+16)
				if k := strings.IndexByte(s[j:end], ';'); k >= 0 {
					end = j + k + 1
				}
				return d.fail(at+j, "invalid character entity "+s[j:end])
			}
			if collect {
				d.spill()
				d.buf = utf8.AppendRune(d.buf, r)
			}
		}
		at, s = at+j+n, s[j+n:]
	}
	return true
}

// add appends s to the text. The first piece is kept as it is, a slice
// of the document; from the second on, the pieces are joined in buf.
func (d *Decoder) add(s string) {
	switch {
	case s == "":
	case d.pieces == 0:
		d.text, d.pieces = s, 1
	default:
		d.spill()
		d.buf = append(d.buf, s...)
	}
}

// spill moves the text into buf, where the pieces after it are joined.
func (d *Decoder) spill() {
	if d.pieces < 2 {
		d.buf = append(d.buf[:0], d.text...)
		d.pieces = 2
	}
}

var entities = [...]struct {
	name string
	r    rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// ref reads the reference at the start of s, which begins with '&': one of
// the five predefined entities or a character reference &#N; or &#xH;. It
// returns the character and the reference's length, or a length of 0 when
// s does not start with a valid reference.
func ref(s string) (rune, int) {
	for _, e := range entities {
		if strings.HasPrefix(s, e.name) {
			return e.r, len(e.name)
		}
	}
	if !strings.HasPrefix(s, "&#") {
		return 0, 0
	}
	digits, base := s[2:], 10
	if strings.HasPrefix(digits, "x") {
		digits, base = digits[1:], 16
	}
	semi := strings.IndexByte(digits, ';')
	if semi < 0 {
		return 0, 0
	}
	n, err := strconv.ParseUint(digits[:semi], base, 21)
	if err != nil || !isChar(rune(n)) {
		return 0, 0
	}
	return rune(n), len(s) - len(digits) + semi + 1
}

// misc skips whitespace, comments and processing instructions.
func (d *Decoder) misc() bool {
	for {
		d.pos = d.space(d.pos)
		if !d.comment() {
			return d.err == nil
		}
	}
}

// comment skips the comment or processing instruction at pos and reports
// whether there was one.
func (d *Decoder) comment() bool {
	switch rest := d.doc[d.pos:]; {
	case strings.HasPrefix(rest, "<!--"):
		end := strings.Index(rest[4:], "--")
		if end < 0 {
			return d.fail(len(d.doc), "unexpected EOF in comment")
		}
		if !strings.HasPrefix(rest[4+end:], "-->") {
			return d.fail(d.pos+4+end, `invalid sequence "--" not allowed in comments`)
		}
		d.pos += 4 + end + 3
	case strings.HasPrefix(rest, "<?"):
		target := name(rest[2:])
		if target == "" || strings.EqualFold(target, "xml") {
			return d.fail(d.pos, "expected a processing instruction target after <?")
		}
		body := rest[2+len(target):]
		end := strings.Index(body, "?>")
		if end < 0 {
			return d.fail(len(d.doc), "unexpected EOF in processing instruction")
		}
		if end > 0 && !isSpace(body[0]) {
			return d.fail(d.pos, "expected a space after the target of <?"+target)
		}
		d.pos += 2 + len(target) + end + 2
	default:
		return false
	}
	return true
}

// startTag reads the start tag at pos, attributes included, and opens its
// element. Attribute values are checked and dropped.
func (d *Decoder) startTag() bool {
	at := d.pos
	elem := name(d.doc[at+1:])
	if elem == "" {
		return d.fail(at, "expected element name after <")
	}
	p, empty := at+1+len(elem), false
	for {
		p = d.space(p)
		rest := d.doc[p:]
		if rest == "" {
			return d.fail(p, "unexpected EOF")
		}
		if strings.HasPrefix(rest, ">") {
			p++
			break
		}
		if strings.HasPrefix(rest, "/>") {
			p, empty = p+2, true
			break
		}
		attr := name(rest)
		if attr == "" || attr == "xmlns" {
			return d.fail(p, "expected an attribute name in <"+elem+">")
		}
		p = d.space(p + len(attr))
		if p == len(d.doc) || d.doc[p] != '=' {
			return d.fail(p, "attribute name without = in <"+elem+">")
		}
		p = d.space(p + 1)
		if p == len(d.doc) || d.doc[p] != '"' && d.doc[p] != '\'' {
			return d.fail(p, "unquoted or missing attribute value in <"+elem+">")
		}
		end := strings.IndexByte(d.doc[p+1:], d.doc[p])
		if end < 0 {
			return d.fail(len(d.doc), "unexpected EOF")
		}
		value := d.doc[p+1 : p+1+end]
		if i := strings.IndexByte(value, '<'); i >= 0 {
			return d.fail(p+1+i, "unescaped < inside quoted string")
		}
		if !d.chars(p+1, value, "&", false) {
			return false
		}
		p += end + 2
	}
	if len(d.stack) == MaxDepth {
		return d.fail(at, "elements nest deeper than "+strconv.Itoa(MaxDepth))
	}
	d.stack = append(d.stack, elem)
	d.pos, d.empty = p, empty
	return true
}

// endTag reads the end tag at pos and closes the current element with it.
func (d *Decoder) endTag() {
	elem := name(d.doc[d.pos+2:])
	p := d.space(d.pos + 2 + len(elem))
	switch open := d.Name(); {
	case elem == "" || p == len(d.doc) || d.doc[p] != '>':
		d.fail(d.pos, "malformed end tag </"+elem)
	case elem != open:
		d.fail(d.pos, "element <"+open+"> closed by </"+elem+">")
	default:
		d.stack = d.stack[:len(d.stack)-1]
		d.pos = p + 1
	}
}

// name returns the XML name at the start of s, or "" if there is none.
// Only ASCII names without a namespace prefix are read.
func name(s string) string {
	if s == "" || !(isLetter(s[0]) || s[0] == '_') {
		return ""
	}
	i := 1
	for i < len(s) && (isLetter(s[i]) || '0' <= s[i] && s[i] <= '9' || s[i] == '_' || s[i] == '-' || s[i] == '.') {
		i++
	}
	return s[:i]
}

// space returns the offset of the first byte at or after p that is not
// whitespace.
func (d *Decoder) space(p int) int {
	for p < len(d.doc) && isSpace(d.doc[p]) {
		p++
	}
	return p
}

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// isChar reports whether r is an XML character (XML 1.0 §2.2).
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' || 0x20 <= r && r <= 0xD7FF ||
		0xE000 <= r && r <= 0xFFFD || 0x10000 <= r && r <= utf8.MaxRune
}

// checkChars finds the first byte of s that is not valid UTF-8 or not an
// XML character, and returns its offset and what is wrong with it; the
// message is empty when s is clean.
func checkChars(s string) (int, string) {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < 0x20 && !isSpace(c) {
				return i, fmt.Sprintf("illegal character code %U", c)
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			return i, "invalid UTF-8"
		}
		if !isChar(r) {
			return i, fmt.Sprintf("illegal character code %U", r)
		}
		i += n
	}
	return 0, ""
}

// declOK checks what lies between "<?xml" and "?>": version="1.0", then
// optionally encoding="UTF-8" and standalone="yes" or "no", in that order,
// each after whitespace and quoted either way.
func declOK(s string) bool {
	keys := []string{"version", "encoding", "standalone"}
	for i, f := range strings.Fields(s) {
		key, val, _ := strings.Cut(f, "=")
		for i > 0 && len(keys) > 0 && keys[0] != key {
			keys = keys[1:]
		}
		if len(keys) == 0 || keys[0] != key || len(val) < 2 || val[0] != val[len(val)-1] || val[0] != '"' && val[0] != '\'' {
			return false
		}
		switch key + "=" + strings.ToLower(val[1:len(val)-1]) {
		case "version=1.0", "encoding=utf-8", "standalone=yes", "standalone=no":
		default:
			return false
		}
		keys = keys[1:]
	}
	return len(keys) < 3
}

// fail records the first error, at offset at, and returns false.
func (d *Decoder) fail(at int, msg string) bool {
	if d.err == nil {
		d.err = &SyntaxError{Msg: msg, Line: 1 + strings.Count(d.doc[:at], "\n")}
	}
	return false
}
