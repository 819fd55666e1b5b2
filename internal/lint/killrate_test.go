package lint_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mutant seeds one violation into the real tree: a body edit that
// type-checks, applied through `go vet -overlay`. Every rule binds to
// the tree by name (eventPool.get, Network.NewPacketFor, Parallel.shards,
// core.Wrap, package base names) while the goldens run on fakes, so
// only this shows that a rename has not silently retired a rule.
type mutant struct {
	analyzer string // who must kill it
	rule     string // fragment of the diagnostic site's format string
	file     string // relative to the module root
	old, new string // old occurs exactly once in file
	want     string // regexp the finding must match beyond the site's format
}

var mutants = []mutant{
	{"detguard", "time.%s in deterministic package", "internal/core/core.go", "\tif metric == nil {\n", "\tif metric == nil || time.Now().IsZero() {\n", `time\.Now`},
	{"detguard", "global rand.%s", "internal/sim/sim.go", "\treturn &Event{}\n", "\treturn &Event{i: int64(rand.Intn(1))}\n", `rand\.Intn`},
	{"detguard", "map iteration order feeds %s", "internal/observer/observer.go", "\tsort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })\n", "\tsort.Ints(nil)\n", `feeds ids`},

	{"hotalloc", "make in", "internal/node/node.go", "(egress int, ok bool) {\n", "(egress int, ok bool) {\n\t_ = make([]int, 1)\n", ``},
	{"hotalloc", "make in", "internal/wire/wire.go", "handle(data []byte) {\n", "handle(data []byte) {\n\tdata = append(make([]byte, 0, len(data)), data...)\n", ``},
	{"hotalloc", "new in", "internal/node/node.go", "\tres := s.DP.Egress(pkt, port, now)\n", "\tres := s.DP.Egress(pkt, port, now)\n\t_ = new(int)\n", ``},
	{"hotalloc", "fmt.%s in", "internal/node/node.go", "Packet(pkt *packet.Packet, port int) {\n", "Packet(pkt *packet.Packet, port int) {\n\t_ = fmt.Sprint(port)\n", `fmt\.Sprint`},
	{"hotalloc", "sync.Pool %s in", "internal/node/node.go", "\tok := s.Egress(pkt, port, now)\n", "\tvar kp sync.Pool\n\tkp.Put(port)\n\tok := s.Egress(pkt, port, now)\n", `sync\.Pool Put`},
	{"hotalloc", "function literal in", "internal/node/node.go", "\t\tnotif, ok := s.DP.PopNotif()\n", "\t\t_ = func() {}\n\t\tnotif, ok := s.DP.PopNotif()\n", ``},
	{"hotalloc", "pointer composite literal in", "internal/core/core.go", "channel int) (packet.SeqID, *Notification) {\n", "channel int) (packet.SeqID, *Notification) {\n\t_ = &Notification{}\n", ``},
	{"hotalloc", "string concatenation in", "internal/control/control.go", "HandleNotification(n dataplane.CPUNotification, now sim.Time) {\n", "HandleNotification(n dataplane.CPUNotification, now sim.Time) {\n\tvar ks string\n\t_ = ks + \"x\"\n", ``},
	{"hotalloc", "map literal in", "internal/observer/observer.go", "OnResult(res control.Result, now sim.Time) {\n", "OnResult(res control.Result, now sim.Time) {\n\t_ = map[int]int{}\n", ``},
	{"hotalloc", "slice literal in", "internal/emunet/emunet.go", "\tq := es.queues[port]\n\tif q.length() >= n.cfg.QueueCapacity {\n", "\t_ = []int{1}\n\tq := es.queues[port]\n\tif q.length() >= n.cfg.QueueCapacity {\n", ``},

	{"journalctor", "journal.Event composite literal", "internal/dataplane/dataplane.go", "\tsw := int(s.cfg.Node)\n\td := dir.Journal()\n\tif n.NewSIDU != n.OldSIDU {\n", "\tsw := int(s.cfg.Node)\n\td := dir.Journal()\n\ts.jr.Append(journal.Event{})\n\tif n.NewSIDU != n.OldSIDU {\n", ``},

	{"lockorder", "is still held on this return path", "internal/node/fabric.go", "\tdefer f.mu.Unlock()\n\tf.obs.OnResult(res, now)\n", "\tf.obs.OnResult(res, now)\n", `lock f\.mu`},
	{"lockorder", "while it is already held", "internal/node/fabric.go", "\tacts := f.obs.CheckTimeouts(now)\n", "\tf.mu.Lock()\n\tacts := f.obs.CheckTimeouts(now)\n", `Lock of f\.mu`},
	{"lockorder", "channel send while holding", "internal/node/fabric.go", "\tf.subs[id] = sub\n", "\tf.subs[id] = sub\n\tsub <- nil\n", ``},
	{"lockorder", "channel send while holding", "internal/live/live.go", "\tdepth := len(m.q)\n\tm.mu.Unlock()\n", "\tdepth := len(m.q)\n\tm.wake <- struct{}{}\n\tm.mu.Unlock()\n", ``},
	{"lockorder", "select without default while holding", "internal/node/fabric.go", "\treturn append([]*observer.GlobalSnapshot(nil), f.done...)\n", "\tselect {\n\tcase <-f.subs[0]:\n\t}\n\treturn append([]*observer.GlobalSnapshot(nil), f.done...)\n", ``},
	{"lockorder", "net %s while holding", "internal/emunet/emunet.go", "\tw, ok := n.syncs[id]\n\tif !ok || w.count == 0 {\n", "\tvar kc net.Conn\n\tkc.Write(nil)\n\tw, ok := n.syncs[id]\n\tif !ok || w.count == 0 {\n", `net Write`},
	{"lockorder", "time.Sleep while holding", "internal/packet/pool.go", "\t\t\tc.allocated += poolBatch\n", "\t\t\tc.allocated += poolBatch\n\t\t\ttime.Sleep(1)\n", ``},

	{"poolown", "may leak on this return path", "internal/sim/sim.go", "\tev := e.pool.get()\n\tev.at = at\n", "\tev := e.pool.get()\n\tif fn == nil && cfn == nil {\n\t\treturn Handle{}\n\t}\n\tev.at = at\n", `value ev`},
	{"poolown", "may leak on this return path", "internal/emunet/emunet.go", "\treturn n.sws[h.Node].ppool.Get()\n", "\tpkt := n.sws[h.Node].ppool.Get()\n\tpkt.Size = 1\n\treturn nil\n", `value pkt`},
	{"poolown", "may leak on this return path", "internal/emunet/determinism_test.go", "\t\t\tn.InjectFromHost(src, pkt)\n", "\t\t\t_ = src\n", `value pkt`},
	{"poolown", "may leak on this return path", "internal/emunet/alloc_test.go", "\t\tn.InjectFromHost(0, pkt)\n", "", `value pkt`},
	{"poolown", "result of pooled %s discarded", "internal/sim/sim.go", "\te.q.push(ev)\n", "\te.q.push(ev)\n\te.pool.get()\n", `pooled get`},
	{"poolown", "overwritten while still owned", "internal/sim/parallel.go", "\tev := home.pool.get()\n", "\tev := home.pool.get()\n\tev = home.pool.get()\n", `value ev`},
	{"poolown", "double Put of pooled value", "internal/emunet/emunet.go", "\t\tn.churnDrops.Add(1)\n\t\tes.ppool.Put(pkt)\n\t\treturn\n\t}\n\tes.pkts.Inc()\n", "\t\tn.churnDrops.Add(1)\n\t\tes.ppool.Put(pkt)\n\t\tes.ppool.Put(pkt)\n\t\treturn\n\t}\n\tes.pkts.Inc()\n", `value pkt`},
	{"poolown", "after Put", "internal/emunet/emunet.go", "\t\t// pooled packet silently.\n\t\tes.ppool.Put(pkt)\n", "\t\tes.ppool.Put(pkt)\n\t\t_ = pkt.Size\n", `value pkt`},

	{"shardsafe", "writes package-level", "internal/emunet/emunet.go", "\tout, ok := es.Ingress(pkt, port, es.proc.Now())\n", "\tinitiationLatency = cpNotifLatency\n\tout, ok := es.Ingress(pkt, port, es.proc.Now())\n", `Network\.arrive writes package-level initiationLatency \(reachable from //speedlight:shard entry Network\.arriveCall\)`},
	{"shardsafe", "writes package-level", "internal/emunet/emunet.go", "\tok := es.Egress(pkt, port, es.proc.Now())\n", "\tinitiationLatency.Mu++\n\tok := es.Egress(pkt, port, es.proc.Now())\n", `Network\.transmit writes`},
	{"shardsafe", "calls //speedlight:global-only", "internal/emunet/emunet.go", "\tn.tel.delivered.Inc()\n\ta.(*EmuSwitch)", "\tn.tel.delivered.Inc()\n\tn.relay(0, 0)\n\ta.(*EmuSwitch)", `Network\.relay \(//speedlight:shard entry point\)`},
	{"shardsafe", "calls sim engine API", "internal/emunet/emunet.go", "\tes.CP.HandleNotification(notif, es.proc.Now())\n", "\tes.CP.HandleNotification(notif, n.eng.Now())\n", `API Now`},
	{"shardsafe", "touches Parallel.%s directly", "internal/sim/parallel.go", "\t\t\treturn\n\t\t}\n\t\tsh.q.push(ev)\n", "\t\t\treturn\n\t\t}\n\t\tp.shards[0].q.push(ev)\n", `drainRing touches Parallel\.shards`},

	{"wrappedcmp", "unwrap with core.Unwrap before comparing", "internal/core/core.go", "\treturn new.Raw() < old.Raw()\n", "\treturn new < old\n", `^<`},
	{"wrappedcmp", "wire IDs are opaque outside", "internal/core/core.go", "RegCurrentSID() packet.WireID { return u.wsid }", "RegCurrentSID() packet.WireID { w := u.wsid; w += 1; return w }", `^\+=`},
	{"wrappedcmp", "advance the unwrapped SeqID", "internal/core/core.go", "{ return u.wrap(u.lastSeen[ch]) }", "{ w := u.wrap(u.lastSeen[ch]); w++; return w }", `^\+\+`},
	{"wrappedcmp", "conversion into wrapped wire ID", "internal/control/control.go", "\treturn core.Wrap(id, p.maxID, p.wrap)\n", "\treturn packet.WireID(id)\n", ``},
	{"wrappedcmp", "conversion out of wrapped wire ID", "internal/control/control.go", "\treturn core.Unwrap(wire, ref, p.maxID, p.wrap)\n", "\treturn packet.SeqID(wire)\n", ``},
	{"wrappedcmp", "narrowing conversion of snapshot SeqID", "internal/core/core.go", "\tpsid := u.unwrap(hdr.ID, oldLS)\n", "\tpsid := u.unwrap(hdr.ID, oldLS)\n\t_ = uint32(psid)\n", `to uint32`},
}

// site is one reportf call of the suite, read from its source.
type site struct{ analyzer, format string }

// re matches exactly the messages the site can print.
func (s site) re() *regexp.Regexp {
	return regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(s.format), "%s", ".*") + "$")
}

// diagnosticSites lists every reportf call in the suite's source (each
// analyzer's file is named after it), so a rule cannot ship without a
// mutant.
func diagnosticSites(t *testing.T) []site {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var sites []site
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "reportf" {
				return true
			}
			lit, ok := call.Args[1].(*ast.BasicLit)
			if !ok {
				t.Errorf("%s: reportf format is not a string literal: the kill-rate cannot bind a mutant to it", fset.Position(call.Pos()))
				return true
			}
			format, _ := strconv.Unquote(lit.Value)
			sites = append(sites, site{strings.TrimSuffix(name, ".go"), format})
			return true
		})
	}
	return sites
}

// stdImports are the packages a mutant may use without its file
// importing them; addImports adds the import a mutated file needs.
var stdImports = map[string]string{"time": "time", "rand": "math/rand", "fmt": "fmt", "sync": "sync", "net": "net"}

func addImports(t *testing.T, name, src string) string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatalf("mutated %s does not parse: %v", name, err)
	}
	var add string
	for _, id := range f.Unresolved {
		path := strconv.Quote(stdImports[id.Name])
		imported := slices.ContainsFunc(f.Imports, func(i *ast.ImportSpec) bool { return i.Path.Value == path })
		if path != `""` && !imported && !strings.Contains(add, path) {
			add += "; import " + path
		}
	}
	i := fset.Position(f.Name.End()).Offset
	return src[:i] + add + src[i:]
}

// TestKillRate is the suite's own lint: the unmutated tree has no
// finding, every diagnostic site has a real-tree mutant, and every
// mutant is killed by the analyzer and the site the table names.
func TestKillRate(t *testing.T) {
	start := time.Now()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tool := vetTool(t)
	for _, f := range vet(t, tool, root, nil, "./...") {
		t.Errorf("finding on the unmutated tree: %s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
	}

	// One overlay holds every mutant; one go vet run over the mutated
	// packages kills them.
	mutated := map[string]string{} // file -> contents
	var pkgs []string
	for _, m := range mutants {
		src, ok := mutated[m.file]
		if !ok {
			data, err := os.ReadFile(filepath.Join(root, m.file))
			if err != nil {
				t.Fatal(err)
			}
			src = string(data)
			if pkg := "./" + filepath.Dir(m.file); !slices.Contains(pkgs, pkg) {
				pkgs = append(pkgs, pkg)
			}
		}
		if n := strings.Count(src, m.old); n != 1 {
			t.Fatalf("mutant %s %q: anchor occurs %d times in %s, want once", m.analyzer, m.rule, n, m.file)
		}
		mutated[m.file] = strings.Replace(src, m.old, m.new, 1)
	}
	overlay := struct{ Replace map[string]string }{map[string]string{}}
	dir := t.TempDir()
	for file, src := range mutated {
		tmp := filepath.Join(dir, strings.ReplaceAll(file, "/", "_"))
		if err := os.WriteFile(tmp, []byte(addImports(t, file, src)), 0o666); err != nil {
			t.Fatal(err)
		}
		overlay.Replace[filepath.Join(root, file)] = tmp
	}
	data, err := json.Marshal(overlay)
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, data, 0o666); err != nil {
		t.Fatal(err)
	}
	found := vet(t, tool, root, nil, append([]string{"-overlay=" + overlayFile}, pkgs...)...)

	sites := diagnosticSites(t)
	killed := map[site]bool{}
	for _, m := range mutants {
		i := slices.IndexFunc(sites, func(s site) bool { return s.analyzer == m.analyzer && strings.Contains(s.format, m.rule) })
		if i < 0 {
			t.Errorf("mutant %s %q names no diagnostic site", m.analyzer, m.rule)
			continue
		}
		siteRE, wantRE := sites[i].re(), regexp.MustCompile(m.want)
		if slices.ContainsFunc(found, func(f finding) bool {
			// go vet hands the tool the overlaid file, and that is the name it reports.
			return f.File == overlay.Replace[filepath.Join(root, m.file)] && f.Analyzer == m.analyzer &&
				siteRE.MatchString(f.Message) && wantRE.MatchString(f.Message)
		}) {
			killed[sites[i]] = true
			t.Logf("killed    %-11s %-42q %s", m.analyzer, m.rule, m.file)
		} else {
			t.Errorf("SURVIVED  %-11s %-42q %s", m.analyzer, m.rule, m.file)
		}
	}
	for _, s := range sites {
		if !killed[s] {
			t.Errorf("no mutant kills diagnostic site %s %q", s.analyzer, s.format)
		}
	}
	t.Logf("lint kill-rate: %d/%d rules, %d mutants, %.1f s", len(killed), len(sites), len(mutants), time.Since(start).Seconds())
}
