package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusSurvivors are the exported identifiers under internal/ that no
// program reaches and that stay anyway, each with the reason it stays. The
// table only shrinks: TestAPICensus fails on an unreached export missing
// from it, and on a listed one that has gained a caller or gone.
var censusSurvivors = map[string]string{
	"giop.ReadMessageLimited":    "the oracle FuzzFrameReader and the orb tests read a whole stream with",
	"giop.SetFrameLeakCheck":     "test instrument the giop, orb and transport tests share",
	"giop.CheckFrameLeaks":       "test instrument the giop, orb and transport tests share",
	"giop.FrameBuf.Detach":       "feeds FrameStats.Detached, which the benchmark reads",
	"memory.Loan.Detach":         "README's torn-read-safe way to keep bytes from an InvokeView call",
	"memory.CheckStore":          "Table 1 at the point a reference is stored; ROADMAP 12 gives it a caller",
	"overload.Controller.Tick":   "test seam for the control step until the clock of ROADMAP 2 lands",
	"overload.Controller.Counts": "test seam for the control step until the clock of ROADMAP 2 lands",
}

// fieldSurvivors are the exported fields of exported …Config and …Options
// structs under internal/ that no program sets and that stay anyway, each
// with the reason it stays. Like censusSurvivors the table only shrinks.
var fieldSurvivors = map[string]string{
	"orb.ClientConfig.MaxMessage":        "a protocol limit only tests set; ROADMAP 8 moves it into CDL",
	"orb.ServerConfig.MaxMessage":        "a protocol limit only tests set; ROADMAP 8 moves it into CDL",
	"orb.ResilienceConfig.ReconnectBase": "tests shorten it until the clock of ROADMAP 2 lands",
	"orb.ResilienceConfig.ReconnectMax":  "tests shorten it until the clock of ROADMAP 2 lands",
	"core.SwapOptions.DrainTimeout":      "tests lengthen or shorten it until the clock of ROADMAP 2 lands",
	"fault.Config.DialRefusals":          "a fault the transport tests turn on",
	"fault.Config.PartialReadProb":       "a fault the transport tests turn on",
	"fault.Config.CorruptProb":           "a fault the transport tests turn on",
	"fault.Config.WrapAccepted":          "a fault the transport tests turn on",
	"deploy.ClusterConfig.DirectoryAddr": "a deployment address; the examples let it default",
	"deploy.ClusterConfig.NodeAddr":      "a deployment address; the examples let it default",
}

// implicitMethods are called through interfaces the standard library
// defines (error and its Unwrap, which errors.Is and errors.As call; io;
// net.Conn), so a program reaches them without naming them.
var implicitMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Read": true, "Write": true, "Close": true,
	"ReadFrom": true, "WriteTo": true, "ReadAt": true, "WriteAt": true,
	"Seek": true, "ReadByte": true, "UnreadByte": true, "WriteByte": true,
	"ReadRune": true, "UnreadRune": true, "WriteString": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true,
	"SetReadDeadline": true, "SetWriteDeadline": true,
}

// TestAPICensus lists the exported functions, methods, types, variables
// and constants declared under internal/ that no non-test Go file in the
// repository names outside the declaration itself. Programs are every
// non-test file: internal/, cmd/, examples/ and the bench/ module alike;
// packages named *test are test helpers and count for neither side. It
// matches names, not types, so a method counts as reached when any
// selector anywhere spells its name.
//
// It also lists the exported fields of exported …Config and …Options
// structs under internal/ that no program sets: a field is set where a
// composite literal of its struct type names it as a key (the type read from
// the literal's package qualifier, or from the enclosing slice or map
// literal when elided) or where any assignment's target selects a field of
// its name.
func TestAPICensus(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key  string // pkg.Name or pkg.Type.Method
		name string
	}
	var decls []decl
	var fields []string // pkg.Type.Field of every option field
	declIdents := map[*ast.Ident]bool{}
	uses := map[string]int{}
	var files []*ast.File

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(f.Name.Name, "test") {
			return nil
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := f.Name.Name
		add := func(id *ast.Ident, key string) {
			if id.IsExported() {
				declIdents[id] = true
				decls = append(decls, decl{key, id.Name})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if dd.Recv == nil {
					add(dd.Name, pkg+"."+dd.Name.Name)
					continue
				}
				if implicitMethods[dd.Name.Name] {
					continue
				}
				if recv := recvType(dd.Recv.List[0].Type); ast.IsExported(recv) {
					add(dd.Name, pkg+"."+recv+"."+dd.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name)
						fields = append(fields, optionFields(pkg, s)...)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, pkg+"."+n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
	}

	var unreached []string
	for _, d := range decls {
		if uses[d.name] == 0 {
			unreached = append(unreached, d.key)
		}
	}
	sort.Strings(unreached)
	isUnreached := map[string]bool{}
	for _, k := range unreached {
		isUnreached[k] = true
		if reason, ok := censusSurvivors[k]; ok {
			t.Logf("survivor %-32s %s", k, reason)
		} else {
			t.Errorf("%s: exported, and no program names it; delete it, move it into a _test.go file, or give it a caller", k)
		}
	}
	for k := range censusSurvivors {
		if !isUnreached[k] {
			t.Errorf("%s: listed as a survivor, but it has a caller now or is gone; take it out of censusSurvivors", k)
		}
	}
	t.Logf("%d survivors, %d declarations scanned", len(censusSurvivors), len(decls))

	set := setFields(files)
	isUnset := map[string]bool{}
	for _, key := range fields {
		if set[key] || set[key[strings.LastIndex(key, ".")+1:]] {
			continue
		}
		isUnset[key] = true
		if reason, ok := fieldSurvivors[key]; ok {
			t.Logf("unset field %-36s %s", key, reason)
		} else {
			t.Errorf("%s: an option no program sets; delete it, or give it a setter", key)
		}
	}
	for k := range fieldSurvivors {
		if !isUnset[k] {
			t.Errorf("%s: listed as an unset field, but a program sets it now or it is gone; take it out of fieldSurvivors", k)
		}
	}
	t.Logf("%d unset fields listed, %d option fields scanned", len(fieldSurvivors), len(fields))
}

// optionFields returns pkg.Type.Field for each exported field of s when s
// declares an exported struct named …Config or …Options.
func optionFields(pkg string, s *ast.TypeSpec) []string {
	st, ok := s.Type.(*ast.StructType)
	name := s.Name.Name
	if !ok || !ast.IsExported(name) || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
		return nil
	}
	var keys []string
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.IsExported() {
				keys = append(keys, pkg+"."+name+"."+n.Name)
			}
		}
	}
	return keys
}

// setFields returns what the files set: pkg.Type.Field for each key of a
// composite literal whose type it can read, and the bare field name for each
// selector an assignment writes to.
func setFields(files []*ast.File) map[string]bool {
	set := map[string]bool{}
	for _, f := range files {
		pkgOf := map[string]string{} // import name → package name
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			pkg := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				pkgOf[imp.Name.Name] = pkg
			} else {
				pkgOf[pkg] = pkg
			}
		}
		// typeName reads a literal's type: T in the file's own package, or
		// q.T through the file's imports; "" when it is neither.
		var typeName func(e ast.Expr) string
		typeName = func(e ast.Expr) string {
			switch x := e.(type) {
			case *ast.StarExpr:
				return typeName(x.X)
			case *ast.Ident:
				return f.Name.Name + "." + x.Name
			case *ast.SelectorExpr:
				if q, ok := x.X.(*ast.Ident); ok && pkgOf[q.Name] != "" {
					return pkgOf[q.Name] + "." + x.Sel.Name
				}
			}
			return ""
		}
		elided := map[*ast.CompositeLit]string{} // element literal → its slice or map's element type
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			case *ast.CompositeLit:
				typ := elided[n]
				var elt ast.Expr
				switch x := n.Type.(type) {
				case nil:
				case *ast.ArrayType:
					elt = x.Elt
				case *ast.MapType:
					elt = x.Value
				default:
					typ = typeName(x)
				}
				for _, e := range n.Elts {
					kv, isKV := e.(*ast.KeyValueExpr)
					if isKV {
						if key, ok := kv.Key.(*ast.Ident); ok && typ != "" {
							set[typ+"."+key.Name] = true
						}
						e = kv.Value
					}
					if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil && elt != nil {
						elided[lit] = typeName(elt)
					}
				}
			}
			return true
		})
	}
	return set
}

// recvType is the name of a method receiver's type, without pointer or
// type parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
