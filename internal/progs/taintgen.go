package progs

import (
	"fmt"
	"strings"
)

// taintLCG is a tiny deterministic linear congruential generator used to
// seed placement in GenerateTaintSwitch. Same seed, same program,
// byte-for-byte — the taint golden tests and the CI determinism job
// depend on that.
type taintLCG struct{ state uint32 }

func (g *taintLCG) next(n int) int {
	g.state = g.state*1103515245 + 12345
	return int((g.state >> 16) % uint32(n))
}

// GenerateTaintSwitch deterministically produces a pipeline that
// exercises the information-flow analysis. It is not part of the
// default corpus (progs.All) — `bf4 lint -taint-family leaky|clean`
// and the taint tests generate it on demand.
//
// The program carries an @sensitive-annotated credential field
// (cred.token) extracted behind ipv4, plus scale benign forwarding
// slices whose table keys and metadata writes must all come out
// statically clean. The seed shuffles where the interesting stages sit
// among the benign slices, so positions differ per seed while the
// verdict set does not.
//
// leaky = true adds three flows:
//
//   - a direct copy of cred.token into an emitted telemetry field
//     (solver-confirmed leak);
//   - a table keyed on cred.token (solver-confirmed leak);
//   - a two-branch gadget (scratch is written under diffserv==1, the
//     sink reads it under diffserv==2) that the path-insensitive
//     dataflow must flag and the solver must dismiss: no single packet
//     takes both branches.
//
// leaky = false routes the token only through statically-clean uses: a
// fully-masked copy (token & 0, which the term factory folds to the
// constant 0 at build time, so the sink gets no check) and a scratch
// variable overwritten before it reaches the sink (killed by the
// dataflow labels).
func GenerateTaintSwitch(scale, seed int, leaky bool) string {
	if scale < 1 {
		scale = 1
	}
	g := &taintLCG{state: uint32(seed)*2654435761 + 1}
	// Interleave the three interesting stages at seeded slice offsets.
	directAt := g.next(scale)
	keyAt := g.next(scale)
	gadgetAt := g.next(scale)

	var b strings.Builder
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format, args...)
		b.WriteString("\n")
	}

	kind := "clean"
	if leaky {
		kind = "leaky"
	}
	w(`// Generated taint-exercise switch (%s family), scale %d, seed %d.`, kind, scale, seed)
	w(`header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}

header ipv4_t {
    bit<4>  version;
    bit<4>  ihl;
    bit<8>  diffserv;
    bit<16> totalLen;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<32> srcAddr;
    bit<32> dstAddr;
}

header cred_t {
    bit<16> user;
    @sensitive
    bit<32> token;
}

header telem_t {
    bit<32> data;
    bit<32> aux;
    bit<8>  tag;
}

struct taint_meta_t {
    bit<32> scratch;
    bit<16> fwd_class;
    bit<8>  stage;
}

struct metadata {
    taint_meta_t m;
}

struct headers {
    ethernet_t ethernet;
    ipv4_t ipv4;
    cred_t cred;
    telem_t telem;
}

parser TgParser(packet_in pkt, out headers hdr, inout metadata meta,
                inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {
            16w0x800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {
            8w99: parse_cred;
            default: accept;
        }
    }
    state parse_cred {
        pkt.extract(hdr.cred);
        transition accept;
    }
}

control TgIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t smeta) {
    action drop_() {
        mark_to_drop(smeta);
    }
    action set_class(bit<16> cls) {
        meta.m.fwd_class = cls;
    }
    action forward(bit<9> port) {
        smeta.egress_spec = port;
    }`)

	// Benign slices: a classifier table plus a forwarding table per
	// slice. Every key and metadata write here must come out statically
	// clean under the label analysis.
	for i := 0; i < scale; i++ {
		w(`
    action tag_stage_%d() {
        meta.m.stage = 8w%d;
    }
    table classify_%d {
        key = {
            hdr.ethernet.dstAddr: exact;
            hdr.ipv4.isValid(): exact;
        }
        actions = { set_class; tag_stage_%d; drop_; }
        default_action = drop_();
    }
    table fwd_%d {
        key = { meta.m.fwd_class: exact; }
        actions = { forward; drop_; }
        default_action = drop_();
    }`, i, i%250, i, i, i)
	}

	if leaky {
		// Table keyed directly on the sensitive credential.
		w(`
    action route_cred(bit<9> port) {
        smeta.egress_spec = port;
    }
    table cred_lookup {
        key = { hdr.cred.token: exact; }
        actions = { route_cred; NoAction; }
    }`)
	}

	// Apply block.
	w(`
    apply {
        hdr.telem.setValid();
        hdr.telem.tag = 8w1;`)
	for i := 0; i < scale; i++ {
		w(`        classify_%d.apply();`, i)
		w(`        fwd_%d.apply();`, i)
		if leaky {
			if i == directAt {
				w(`        if (hdr.cred.isValid()) {
            hdr.telem.data = hdr.cred.token;
        }`)
			}
			if i == keyAt {
				w(`        if (hdr.cred.isValid()) {
            cred_lookup.apply();
        }`)
			}
			if i == gadgetAt {
				w(`        if (hdr.ipv4.diffserv == 8w1) {
            meta.m.scratch = hdr.cred.token;
        }
        if (hdr.ipv4.diffserv == 8w2) {
            hdr.telem.aux = meta.m.scratch;
        }`)
			}
		} else {
			if i == directAt {
				w(`        if (hdr.cred.isValid()) {
            hdr.telem.data = hdr.cred.token & 32w0;
        }`)
			}
			if i == gadgetAt {
				w(`        meta.m.scratch = hdr.cred.token;
        meta.m.scratch = 32w0;
        hdr.telem.aux = meta.m.scratch;`)
			}
		}
	}
	w(`    }
}

control TgEgress(inout headers hdr, inout metadata meta,
                 inout standard_metadata_t smeta) {
    action rewrite_smac(bit<48> smac) {
        hdr.ethernet.srcAddr = smac;
    }
    table egress_rewrite {
        key = { smeta.egress_port: exact; }
        actions = { rewrite_smac; NoAction; }
    }
    apply {
        egress_rewrite.apply();
    }
}

control TgDeparser(packet_out pkt, in headers hdr) {
    apply {
        pkt.emit(hdr.ethernet);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.telem);
    }
}

V1Switch(TgParser(), TgIngress(), TgEgress(), TgDeparser()) main;`)

	return b.String()
}
