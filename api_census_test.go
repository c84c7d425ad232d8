package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusSurvivors are the exported objects under internal/ that no program
// reaches and that stay anyway, each with the reason it stays. The table
// only shrinks: TestAPICensus fails on an unreached export missing from it,
// and on a listed one that has gained a caller or gone.
var censusSurvivors = map[string]string{
	"giop.ReadMessageLimited":    "the oracle FuzzFrameReader and the orb tests read a whole stream with",
	"giop.SetFrameLeakCheck":     "test instrument the giop, orb and transport tests share",
	"giop.CheckFrameLeaks":       "test instrument the giop, orb and transport tests share",
	"giop.FrameBuf.Detach":       "feeds FrameStats.Detached, which the benchmark reads",
	"memory.Loan.Detach":         "README's torn-read-safe way to keep bytes from an InvokeView call",
	"memory.Loan.Len":            "the memory-model tests' probe of a revoked loan",
	"memory.Loan.Valid":          "the memory-model tests' probe of a revoked loan",
	"memory.Ref.Area":            "the memory-model tests' probe of where a reference lives",
	"memory.Ref.Len":             "the memory-model tests' probe of where a reference lives",
	"memory.Ref.Valid":           "the memory-model tests' probe of a reclaimed reference",
	"memory.Area.Level":          "the memory-model tests read the scope tree with it",
	"memory.Area.Parent":         "the memory-model tests read the scope tree with it",
	"memory.Wedge.Area":          "the lifecycle model checks a parked shell's wedge holds its own area",
	"memory.CheckStore":          "Table 1 at the point a reference is stored; ROADMAP 12 gives it a caller",
	"core.App.Drain":             "the tests' settle: wait for quiescence without polling",
	"core.Component.Area":        "the core and orb tests check which area a shell or handler stands in",
	"orb.Client.Members":         "the replica and cluster tests read a client's membership",
	"orb.Server.Inflight":        "the deploy, drain and conformance tests read a server's in-flight count",
	"cluster.Directory.Members":  "the cluster and deploy tests read a group's membership",
	"telemetry.Histogram.Max":    "the giop and telemetry tests read a histogram's largest sample",
	"overload.Controller.Tick":   "test seam for the control step until the clock of ROADMAP 2 lands",
	"overload.Controller.Counts": "test seam for the control step until the clock of ROADMAP 2 lands",
}

// fieldSurvivors are the exported fields of exported …Config and …Options
// structs under internal/ that no program sets and that stay anyway, each
// with the reason it stays. Like censusSurvivors the table only shrinks.
var fieldSurvivors = map[string]string{
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

// implicitMethods are called by the standard library through interfaces it
// defines (error and its Unwrap, which errors.Is and errors.As call; fmt's
// Stringer; io; net.Conn), so a program reaches them without a call the
// census can see.
var implicitMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true,
	"Read": true, "Write": true, "Close": true,
	"ReadFrom": true, "WriteTo": true, "ReadAt": true, "WriteAt": true,
	"Seek": true, "ReadByte": true, "UnreadByte": true, "WriteByte": true,
	"ReadRune": true, "UnreadRune": true, "WriteString": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true,
	"SetReadDeadline": true, "SetWriteDeadline": true,
}

// modulePath is the import path of the repository's root; bench/ is a
// module of its own whose path, repro/bench, sits under it.
const modulePath = "repro"

// TestAPICensus lists the exported functions, methods, types, variables
// and constants declared under internal/ that no non-test Go file in the
// repository reaches. Programs are every non-test file: internal/, cmd/,
// examples/ and the bench/ module alike; packages named *test are test
// helpers and count for neither side. The tree is type-checked with
// go/types (the standard library from source, so it needs no network and no
// export data), and an export is reached when a program resolves to that
// object: names it, calls it, takes it as a method value or expression, or
// calls it promoted through an embedded field. A method is reached too when
// a program calls an interface method of its name that its receiver type
// implements, or when the standard library calls it (implicitMethods). A
// type named only by its own methods' receivers is not reached.
//
// It also lists the exported fields of exported …Config and …Options
// structs under internal/ that no program sets: a field is set where a
// composite literal keys it, an assignment or ++/-- writes it, or a program
// takes its address.
func TestAPICensus(t *testing.T) {
	tree := loadTree(t)

	var decls []types.Object          // exported declarations under internal/
	fields := map[string]*types.Var{} // pkg.Type.Field → each exported field of a …Config or …Options struct
	for _, pkg := range tree.internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			decls = append(decls, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !implicitMethods[m.Name()] {
					decls = append(decls, m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[pkg.Name()+"."+name+"."+f.Name()] = f
					}
				}
			}
		}
	}

	var unreached []string
	for _, obj := range decls {
		if !tree.reached(obj) {
			unreached = append(unreached, objectKey(obj))
		}
	}
	sort.Strings(unreached)
	isUnreached := map[string]bool{}
	for _, k := range unreached {
		isUnreached[k] = true
		if reason, ok := censusSurvivors[k]; ok {
			t.Logf("survivor %-32s %s", k, reason)
		} else {
			t.Errorf("%s: exported, and no program reaches it; delete it, move it into a _test.go file, or give it a caller", k)
		}
	}
	for k := range censusSurvivors {
		if !isUnreached[k] {
			t.Errorf("%s: listed as a survivor, but it has a caller now or is gone; take it out of censusSurvivors", k)
		}
	}
	t.Logf("%d survivors, %d declarations scanned", len(censusSurvivors), len(decls))

	isUnset := map[string]bool{}
	for key, f := range fields {
		if tree.set[f] {
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

// censusTree is the repository's non-test code, type-checked, and what it
// reaches.
type censusTree struct {
	internal []*types.Package          // the packages under internal/
	uses     map[types.Object]int      // how often programs resolve to each object
	own      map[types.Object]int      // how often a type names its own methods' receivers
	calls    map[string][]*types.Func  // interface methods programs use, by name
	set      map[*types.Var]bool       // fields a program writes
	files    map[string][]*ast.File    // import path → its non-test files
	pkgs     map[string]*types.Package // import path → checked package
	std      types.Importer            // the standard library, from source
	fset     *token.FileSet
	info     *types.Info
}

// loadTree parses every non-test Go file in the repository and type-checks
// each package, the bench/ module's too.
func loadTree(t *testing.T) *censusTree {
	// The source importer reads build.Default. Without cgo it type-checks
	// the standard library's pure-Go files and needs no C compiler; nothing
	// the census asks about depends on which.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	tree := &censusTree{
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil),
		fset:  fset,
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
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
		dir := filepath.ToSlash(filepath.Dir(path))
		imp := modulePath
		if dir != "." {
			imp += "/" + dir
		}
		tree.files[imp] = append(tree.files[imp], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(tree.files))
	for p := range tree.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pkg, err := tree.Import(p)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
		if strings.HasPrefix(p, modulePath+"/internal/") {
			tree.internal = append(tree.internal, pkg)
		}
	}
	tree.index()
	return tree
}

// Import type-checks one of the repository's packages from its parsed
// files, and hands any other path to the standard library's importer.
func (tree *censusTree) Import(path string) (*types.Package, error) {
	if pkg, ok := tree.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := tree.files[path]
	if !ok {
		return tree.std.Import(path)
	}
	conf := types.Config{Importer: tree}
	pkg, err := conf.Check(path, tree.fset, files, tree.info)
	if err != nil {
		return nil, err
	}
	tree.pkgs[path] = pkg
	return pkg, nil
}

// index reads what the checked files reach and write.
func (tree *censusTree) index() {
	tree.uses = map[types.Object]int{}
	tree.own = map[types.Object]int{}
	tree.calls = map[string][]*types.Func{}
	tree.set = map[*types.Var]bool{}
	for _, obj := range tree.info.Uses {
		obj = origin(obj)
		tree.uses[obj]++
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				tree.calls[fn.Name()] = append(tree.calls[fn.Name()], fn)
			}
		}
	}
	setField := func(id *ast.Ident) {
		if v, ok := tree.info.Uses[id].(*types.Var); ok && v.IsField() {
			tree.set[v.Origin()] = true
		}
	}
	written := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			setField(sel.Sel)
		}
	}
	for _, files := range tree.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						if id := recvIdent(n.Recv.List[0].Type); id != nil {
							tree.own[tree.info.Uses[id]]++
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						setField(key)
					}
				}
				return true
			})
		}
	}
}

// reached reports whether a program reaches obj.
func (tree *censusTree) reached(obj types.Object) bool {
	if tree.uses[obj] > tree.own[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	for _, im := range tree.calls[fn.Name()] {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
			return true
		}
	}
	return false
}

// origin is the declared object behind an instantiation of a generic one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// objectKey names an object the way censusSurvivors does: pkg.Name, or
// pkg.Type.Name for a method.
func objectKey(obj types.Object) string {
	pkg := obj.Pkg().Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return pkg + "." + typeName(recv.Type()) + "." + fn.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// typeName is the name of a receiver's type, without pointer or type
// arguments.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// recvIdent is the identifier naming a method receiver's type, without
// pointer or type parameters.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
