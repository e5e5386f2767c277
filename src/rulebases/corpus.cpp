#include "rulebases/corpus.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace flexrouter::rulebases {

namespace {

std::string header_mesh(int width, int height, const std::string& name) {
  std::ostringstream os;
  os << "PROGRAM " << name << ";\n"
     << "CONSTANT width = " << width << "\n"
     << "CONSTANT height = " << height << "\n"
     << "CONSTANT dirs = 4\n"
     << "CONSTANT vcs = 2\n"
     << "CONSTANT outs = {east, west, north, south, local}\n"
     << "INPUT xpos IN 0 TO width-1\n"
     << "INPUT ypos IN 0 TO height-1\n"
     << "INPUT xdes IN 0 TO width-1\n"
     << "INPUT ydes IN 0 TO height-1\n";
  return os.str();
}

}  // namespace

std::string nara_route_source(int width, int height) {
  // The runnable double-y NARA: one rule per (sign dx, sign dy) case, each
  // conclusion emitting the full adaptive candidate set. Ports follow the
  // Compass numbering (east=0, west=1, north=2, south=3, local=4); VC 1 is
  // the north-going virtual network, VC 0 the south-going one.
  std::string src = header_mesh(width, height, "nara_rules");
  src += R"(
INPUT in_vc IN vcs
INPUT injected IN 0 TO 1
ON route
  IF ypos < ydes AND xpos < xdes THEN !cand(2, 1, 0), !cand(0, 1, 0);
  IF ypos < ydes AND xpos > xdes THEN !cand(2, 1, 0), !cand(1, 1, 0);
  IF ypos < ydes AND xpos = xdes THEN !cand(2, 1, 0);
  IF ypos > ydes AND xpos < xdes THEN !cand(3, 0, 0), !cand(0, 0, 0);
  IF ypos > ydes AND xpos > xdes THEN !cand(3, 0, 0), !cand(1, 0, 0);
  IF ypos > ydes AND xpos = xdes THEN !cand(3, 0, 0);
  -- dy = 0: injected packets pick either network, in-flight ones stay on
  -- their arrival VC (deadlock freedom of the two virtual networks).
  IF ypos = ydes AND xpos < xdes AND injected = 1
    THEN !cand(0, 0, 0), !cand(0, 1, 0);
  IF ypos = ydes AND xpos < xdes AND injected = 0 THEN !cand(0, in_vc, 0);
  IF ypos = ydes AND xpos > xdes AND injected = 1
    THEN !cand(1, 0, 0), !cand(1, 1, 0);
  IF ypos = ydes AND xpos > xdes AND injected = 0 THEN !cand(1, in_vc, 0);
  IF ypos = ydes AND xpos = xdes THEN !cand(4, 0, 0);
END route;
)";
  return src;
}

std::string ft_mesh_route_source(int width, int height) {
  // Ports: east=0 west=1 north=2 south=3 local=4. VC 0/1: the NARA double
  // networks (by the sign of dy, with the stay-on-arrival rule for dy = 0);
  // VC 2: the escape layer, entered only when every minimal link is broken
  // and sticky once entered. The adaptive layer is minimal, so it is
  // acyclic by the double-network argument even with links filtered out;
  // the escape layer is up*/down*; adaptive -> escape edges are one-way —
  // the full channel dependency graph is acyclic (tests verify).
  std::string src = header_mesh(width, height, "ft_mesh_rules");
  src += R"(
CONSTANT ftvcs = 3
INPUT in_vc IN ftvcs
INPUT injected IN 0 TO 1
INPUT link_ok(dirs) IN 0 TO 1
INPUT on_escape IN 0 TO 1
INPUT escape_ok IN 0 TO 1
INPUT escape_port IN 0 TO 4
ON route
  -- delivery and escape stickiness come first
  IF xpos = xdes AND ypos = ydes THEN !cand(4, 0, 0);
  IF on_escape = 1 THEN !cand(escape_port, 2, 0);
  -- north-going (dy > 0): network 1
  IF ypos < ydes AND xpos < xdes AND link_ok(2) = 1 AND link_ok(0) = 1
    THEN !cand(2, 1, 0), !cand(0, 1, 0);
  IF ypos < ydes AND xpos < xdes AND link_ok(2) = 1 AND link_ok(0) = 0
    THEN !cand(2, 1, 0);
  IF ypos < ydes AND xpos < xdes AND link_ok(2) = 0 AND link_ok(0) = 1
    THEN !cand(0, 1, 0);
  IF ypos < ydes AND xpos > xdes AND link_ok(2) = 1 AND link_ok(1) = 1
    THEN !cand(2, 1, 0), !cand(1, 1, 0);
  IF ypos < ydes AND xpos > xdes AND link_ok(2) = 1 AND link_ok(1) = 0
    THEN !cand(2, 1, 0);
  IF ypos < ydes AND xpos > xdes AND link_ok(2) = 0 AND link_ok(1) = 1
    THEN !cand(1, 1, 0);
  IF ypos < ydes AND xpos = xdes AND link_ok(2) = 1 THEN !cand(2, 1, 0);
  -- south-going (dy < 0): network 0
  IF ypos > ydes AND xpos < xdes AND link_ok(3) = 1 AND link_ok(0) = 1
    THEN !cand(3, 0, 0), !cand(0, 0, 0);
  IF ypos > ydes AND xpos < xdes AND link_ok(3) = 1 AND link_ok(0) = 0
    THEN !cand(3, 0, 0);
  IF ypos > ydes AND xpos < xdes AND link_ok(3) = 0 AND link_ok(0) = 1
    THEN !cand(0, 0, 0);
  IF ypos > ydes AND xpos > xdes AND link_ok(3) = 1 AND link_ok(1) = 1
    THEN !cand(3, 0, 0), !cand(1, 0, 0);
  IF ypos > ydes AND xpos > xdes AND link_ok(3) = 1 AND link_ok(1) = 0
    THEN !cand(3, 0, 0);
  IF ypos > ydes AND xpos > xdes AND link_ok(3) = 0 AND link_ok(1) = 1
    THEN !cand(1, 0, 0);
  IF ypos > ydes AND xpos = xdes AND link_ok(3) = 1 THEN !cand(3, 0, 0);
  -- x-only (dy = 0): stay on the arrival network, injected may pick either
  IF ypos = ydes AND xpos < xdes AND link_ok(0) = 1 AND injected = 1
    THEN !cand(0, 0, 0), !cand(0, 1, 0);
  IF ypos = ydes AND xpos < xdes AND link_ok(0) = 1 AND injected = 0
    THEN !cand(0, min(in_vc, 1), 0);
  IF ypos = ydes AND xpos > xdes AND link_ok(1) = 1 AND injected = 1
    THEN !cand(1, 0, 0), !cand(1, 1, 0);
  IF ypos = ydes AND xpos > xdes AND link_ok(1) = 1 AND injected = 0
    THEN !cand(1, min(in_vc, 1), 0);
  -- every minimal link broken: enter the escape layer
  IF escape_ok = 1 THEN !cand(escape_port, 2, 0);
END route;
-- host model: the escape layer runs on VC 2. It reroutes around any fault
-- pattern that leaves the mesh connected; two arbitrary faults never cut
-- more than a corner off a >=4x4 mesh, so the program claims 2-fault
-- tolerance.
CONSTANT escape_vc = 2
CONSTANT fault_tolerance = 2
)";
  return src;
}

std::string ecube_route_source(int dimension) {
  FR_REQUIRE(dimension >= 1 && dimension <= 12);
  std::ostringstream os;
  os << "PROGRAM ecube_rules;\n"
     << "CONSTANT dim = " << dimension << "\n"
     << "CONSTANT maxnode = " << ((1 << dimension) - 1) << "\n"
     << "INPUT node IN 0 TO maxnode\n"
     << "INPUT dest IN 0 TO maxnode\n"
     << "ON route\n"
     << "  IF node = dest THEN !cand(dim, 0, 0);\n";
  // One rule per dimension: bit i differs and all lower bits agree.
  for (int i = 0; i < dimension; ++i) {
    os << "  IF bit(xor(node, dest), " << i << ") = 1";
    for (int j = 0; j < i; ++j)
      os << " AND bit(xor(node, dest), " << j << ") = 0";
    os << " THEN !cand(" << i << ", 0, 0);\n";
  }
  os << "END route;\n";
  return os.str();
}

std::string ecube_msb_route_source(int dimension) {
  FR_REQUIRE(dimension >= 1 && dimension <= 12);
  std::ostringstream os;
  os << "PROGRAM ecube_msb_rules;\n"
     << "CONSTANT dim = " << dimension << "\n"
     << "CONSTANT maxnode = " << ((1 << dimension) - 1) << "\n"
     << "INPUT node IN 0 TO maxnode\n"
     << "INPUT dest IN 0 TO maxnode\n"
     << "ON route\n"
     << "  IF node = dest THEN !cand(dim, 0, 0);\n";
  // One rule per dimension: bit i differs and all higher bits agree.
  for (int i = dimension - 1; i >= 0; --i) {
    os << "  IF bit(xor(node, dest), " << i << ") = 1";
    for (int j = dimension - 1; j > i; --j)
      os << " AND bit(xor(node, dest), " << j << ") = 0";
    os << " THEN !cand(" << i << ", 0, 0);\n";
  }
  os << "END route;\n";
  return os.str();
}

namespace {

/// Registers shared by NAFTA and its non-FT variant (NARA): 112 bits in
/// four registers.
const char* kNaftaNftRegisters = R"(
-- non-fault-tolerant registers (NARA needs these too): 112 bits
VARIABLE out_queue[5] IN 0 TO 255     -- data assigned per output (adaptivity)
VARIABLE mean_queue[5] IN 0 TO 255    -- smoothed per-output load
VARIABLE sched_credit[4] IN 0 TO 63   -- fair-scheduling credits
VARIABLE msg_count IN 0 TO 255        -- messages in transit
)";

/// FT-only registers: 47 bits in four registers (the paper: "only 47 bits
/// account for fault-tolerance").
const char* kNaftaFtRegisters = R"(
-- fault-tolerance registers: 47 bits
VARIABLE dir_state[4] IN node_states  -- per-direction region state (12)
VARIABLE fault_count IN 0 TO 31       -- known faults nearby (5)
VARIABLE exception_flags[4] IN 0 TO 3 -- special-situation markers (8)
VARIABLE ft_timer IN 0 TO 4194303     -- reconfiguration timeout (22)
)";

const char* kNaftaSharedInputs = R"(
INPUT outchan(5, vcs) IN 0 TO 1       -- output channel free flags
INPUT sel_vc IN vcs                   -- virtual network of the message
INPUT msg_len IN 0 TO 255             -- remaining message length
INPUT info_kind IN info_kinds         -- what an info message carries
INPUT changed IN 0 TO 1               -- did the last update change state
)";

const char* kNaftaFtInputs = R"(
INPUT link_fault(dirs) IN 0 TO 1      -- per-link fault flag
INPUT deadend(dirs) IN 0 TO 1         -- propagated dead-end flags
INPUT misrouted_in IN 0 TO 1          -- header misroute mark
INPUT new_info IN node_states         -- state carried by a fault message
INPUT nb_state IN node_states         -- a neighbour's current state
INPUT fault_kind IN fault_kinds       -- what failed
INPUT except_dir IN dirs              -- direction of a special situation
INPUT plen_over IN 0 TO 1             -- path-length counter over budget
)";

/// Rule bases present in both variants (the "nft" column of Table 1).
/// `incoming_message` is the fault-free fast path: one interpretation
/// selects among the minimal outputs. Its feature space — four offset-sign
/// comparators, four channel-free flags, local readiness and a distance
/// test — indexes a 1024-entry table, as in the paper.
const char* kNaftaNftRuleBases = R"(
-- handling of an incoming message (fault-free fast path)      [Table 1 row 1]
ON incoming_message RETURNS outs
  IF NOT (ypos < ydes) AND NOT (ypos > ydes) AND NOT (xpos < xdes)
     AND NOT (xpos > xdes) AND outchan(4, sel_vc) = 1
    THEN RETURN(local);
  IF ypos < ydes AND xpos < xdes AND outchan(0, sel_vc) = 1
     AND meshdist(xpos, ypos, xdes, ydes) > 1
    THEN RETURN(east), out_queue(0) <- min(out_queue(0) + msg_len, 255);
  IF ypos < ydes AND outchan(2, sel_vc) = 1
    THEN RETURN(north), out_queue(2) <- min(out_queue(2) + msg_len, 255);
  IF ypos < ydes AND xpos > xdes AND outchan(1, sel_vc) = 1
    THEN RETURN(west), out_queue(1) <- min(out_queue(1) + msg_len, 255);
  IF ypos > ydes AND xpos < xdes AND outchan(0, sel_vc) = 1
     AND meshdist(xpos, ypos, xdes, ydes) > 1
    THEN RETURN(east), out_queue(0) <- min(out_queue(0) + msg_len, 255);
  IF ypos > ydes AND outchan(3, sel_vc) = 1
    THEN RETURN(south), out_queue(3) <- min(out_queue(3) + msg_len, 255);
  IF ypos > ydes AND xpos > xdes AND outchan(1, sel_vc) = 1
    THEN RETURN(west), out_queue(1) <- min(out_queue(1) + msg_len, 255);
  IF NOT (ypos < ydes) AND NOT (ypos > ydes) AND xpos < xdes
     AND outchan(0, sel_vc) = 1
    THEN RETURN(east), msg_count <- min(msg_count + 1, 255);
  IF NOT (ypos < ydes) AND NOT (ypos > ydes) AND xpos > xdes
     AND outchan(1, sel_vc) = 1
    THEN RETURN(west), msg_count <- min(msg_count + 1, 255);
END incoming_message;

-- fair output scheduling when a message completes             [Table 1 row 4]
ON message_finished(fp IN dirs)
  IF fp IN {0, 1, 2, 3} AND sched_credit(fp) > 0 AND out_queue(fp) > 0
    THEN sched_credit(fp) <- sched_credit(fp) - 1,
         out_queue(fp) <- out_queue(fp) - 1;
  IF fp IN {0, 1, 2, 3} AND sched_credit(fp) > 0 AND mean_queue(fp) > 0
    THEN sched_credit(fp) <- sched_credit(fp) - 1,
         mean_queue(fp) <- mean_queue(fp) - 1;
  IF fp IN {0, 1, 2, 3} AND msg_count > 0
    THEN msg_count <- msg_count - 1,
         mean_queue(fp) <- min(mean_queue(fp) + 1, 255);
END message_finished;

-- generation of messages to adjacent nodes                    [Table 1 row 7]
ON tell_my_neighbors(dir IN dirs)
  IF dir IN {0, 1, 2, 3} AND changed = 1 AND info_kind = loadmsg
    THEN !send_info(dir, 0);
  IF dir IN {0, 1, 2, 3} AND changed = 1 AND info_kind = faultmsg
    THEN !send_info(dir, 1);
END tell_my_neighbors;

-- update of the adaptivity criterion per transmitted flit     [Table 1 row 8]
ON flit_finished(p IN dirs)
  IF out_queue(p) > 0 AND sched_credit(p) > 0
    THEN out_queue(p) <- out_queue(p) - 1,
         mean_queue(p) <- min(mean_queue(p) + sched_credit(p), 255);
  IF out_queue(p) > 0
    THEN out_queue(p) <- out_queue(p) - 1;
END flit_finished;

-- update of adaptivity or fault information from a neighbour  [Table 1 row 10]
ON message_from_info_channel
  IF info_kind = loadmsg THEN msg_count <- 0;
  IF info_kind = faultmsg THEN !trigger_update(0);
END message_from_info_channel;
)";

/// Rule bases only the fault-tolerant NAFTA needs.
const char* kNaftaFtRuleBases = R"(
-- routing decision in fault-tolerant mode                     [Table 1 row 2]
ON in_message_ft RETURNS outs
  IF deadend(0) = 0 AND link_fault(0) = 0 THEN RETURN(east),
      fault_count <- min(fault_count, 31);
  IF deadend(1) = 0 AND link_fault(1) = 0 THEN RETURN(west);
  IF deadend(2) = 0 AND link_fault(2) = 0 THEN RETURN(north);
  IF deadend(3) = 0 AND link_fault(3) = 0 THEN RETURN(south);
  IF link_fault(0) = 1 AND link_fault(1) = 1 AND link_fault(2) = 1
     AND link_fault(3) = 1
    THEN RETURN(local), !blocked_alert(deadend(0) = 1 OR deadend(1) = 1);
END in_message_ft;

-- new fault states require an update of routing data          [Table 1 row 3]
ON update_dir_table
  IF new_info = deact AND changed = 1
    THEN FORALL i IN dirs: dir_state(i) <- deact,
         !announce({dee, dew, den, des} SETMINUS {dee}),
         ft_timer <- 0;
  IF new_info = dee AND except_dir = 0 THEN dir_state(0) <- dee;
  IF new_info = dew AND except_dir = 1 THEN dir_state(1) <- dew;
  IF new_info = den AND except_dir = 2 THEN dir_state(2) <- den;
  IF new_info = des AND except_dir = 3 THEN dir_state(3) <- des;
  IF new_info = ok AND changed = 1
    THEN dir_state(except_dir) <- ok,
         ft_timer <- min(ft_timer + 1, 4194303);
END update_dir_table;

-- status from a neighbour node or change of a link state      [Table 1 row 5]
ON calculate_new_node_state
  IF nb_state = deact AND fault_count = 0 AND changed = 1
    THEN dir_state(0) <- nb_state, fault_count <- fault_count + 1;
  IF nb_state = iso AND plen_over = 0
    THEN dir_state(1) <- nb_state,
         !announce({deact, iso} SETMINUS {deact});
  IF nb_state = ok AND fault_count = 0
    THEN dir_state(2) <- ok;
  IF changed = 1 AND plen_over = 1
    THEN ft_timer <- min(ft_timer + 1, 4194303);
END calculate_new_node_state;

-- handling of messages in a special situation                 [Table 1 row 6]
ON test_exception
  IF misrouted_in = 1 AND plen_over = 1 AND fault_count IN {1, 2, 3}
     AND except_dir < 4
    THEN exception_flags(except_dir) <- 3, !force_escape(except_dir);
  IF misrouted_in = 1 AND plen_over = 0 AND except_dir < 4
    THEN exception_flags(except_dir) <- 1;
  IF misrouted_in = 0 AND fault_count IN {1, 2, 3} AND except_dir < 4
    THEN exception_flags(except_dir) <- 2;
END test_exception;

-- update of node state on failure                             [Table 1 row 9]
ON fault_occured
  IF fault_kind = linkf
    THEN fault_count <- min(fault_count + 1, 31),
         !mark(fault_kind IN {linkf, nodef}, fault_kind IN {nodef, transient});
  IF fault_kind = nodef
    THEN fault_count <- min(fault_count + 1, 31),
         !announce({dee} UNION {dew});
  IF fault_kind = transient THEN ft_timer <- 0;
END fault_occured;

-- consistency of neighbouring states                          [Table 1 row 11]
ON consider_neighbor_state
  IF fault_count < 2
    THEN fault_count <- fault_count + 1, dir_state(0) <- nb_state;
END consider_neighbor_state;
)";

/// Host-model declarations closing both variants: a header enters the
/// double network by the sign of dy.
const char* kNaftaHostModel = R"(
-- host model
CONSTANT inject_by_sign_dy = 1
)";

std::string nafta_common_decls(int width, int height,
                               const std::string& name) {
  std::string src = header_mesh(width, height, name);
  src +=
      "CONSTANT node_states = {ok, dee, dew, den, des, deact, iso, spare}\n"
      "CONSTANT fault_kinds = {linkf, nodef, transient}\n"
      "CONSTANT info_kinds = {loadmsg, faultmsg}\n";
  src += kNaftaSharedInputs;
  src += kNaftaNftRegisters;
  return src;
}

}  // namespace

std::string nafta_program_source(int width, int height) {
  std::string src = nafta_common_decls(width, height, "nafta");
  src += kNaftaFtInputs;
  src += kNaftaFtRegisters;
  src += kNaftaNftRuleBases;
  src += kNaftaFtRuleBases;
  src += kNaftaHostModel;
  // NAFTA switches to the fault-tolerant decision base when a minimal
  // output is broken (paper Table 1 row 2) and claims 1-fault tolerance.
  src += "CONSTANT fault_tolerance = 1\n";
  return src;
}

std::string nara_program_source(int width, int height) {
  std::string src = nafta_common_decls(width, height, "nara");
  src += kNaftaNftRuleBases;
  src += kNaftaHostModel;  // NARA claims no fault tolerance
  return src;
}

const std::map<std::string, std::string>& nafta_meanings() {
  static const std::map<std::string, std::string> meanings = {
      {"incoming_message", "handling of an incoming message"},
      {"in_message_ft", "routing decision in ft mode"},
      {"update_dir_table", "new fault states require update of data"},
      {"message_finished", "fair output scheduling"},
      {"calculate_new_node_state",
       "status from a neighbor node or change of a link state"},
      {"test_exception", "handling of messages in a special situation"},
      {"tell_my_neighbors", "generation of messages to adjacent nodes"},
      {"flit_finished", "update adaptivity criterion"},
      {"fault_occured", "update of node state on failure"},
      {"message_from_info_channel",
       "update of adaptivity or fault information"},
      {"consider_neighbor_state", "consistency of neighboring states"},
  };
  return meanings;
}

namespace {

std::string route_c_decls(int d, int a, bool ft, const std::string& name) {
  FR_REQUIRE(d >= 2 && d <= 16);
  FR_REQUIRE(a >= 1 && a <= 8);
  std::ostringstream os;
  os << "PROGRAM " << name << ";\n"
     << "CONSTANT dim = " << d << "\n"
     << "CONSTANT maxmask = " << ((1 << d) - 1) << "\n"
     << "CONSTANT maxacmd = " << ((1 << a) - 1) << "\n"
     << "CONSTANT fault_states = {safe, faulty, ounsafe, sunsafe, lfault}\n"
     << "CONSTANT phases = {asc, desc, mis, esc}\n"
     << "INPUT up_mask IN 0 TO maxmask\n"      // dimensions still to set
     << "INPUT down_mask IN 0 TO maxmask\n"    // dimensions still to clear
     << "INPUT misrouted_in IN 0 TO 1\n"
     << "INPUT phase IN phases\n"
     << "INPUT new_state(dim) IN fault_states\n"
     << "INPUT nb_unsafe IN 0 TO 1\n"
     << "INPUT dest_unsafe IN 0 TO 1\n"
     << "INPUT blocked IN 0 TO 1\n"
     << "INPUT esc_ok IN 0 TO 1\n";
  // Registers: 15d + 2*ceil(log2 d) + 3 bits in nine registers, one of them
  // constant (a configuration-time value occupying no flexible bits).
  os << "-- non-fault-tolerant register: 9d bits\n"
     << "VARIABLE queue_len[dim] IN 0 TO 511\n";
  if (ft) {
    os << "-- fault-tolerance registers: 6d + 2*ceil(log2 d) + 3 bits\n"
       << "VARIABLE neighb_state[dim] IN fault_states\n"  // 3d
       << "VARIABLE link_fault[dim] IN 0 TO 1\n"          // d
       << "VARIABLE tried_up[dim] IN 0 TO 1\n"            // d
       << "VARIABLE tried_down[dim] IN 0 TO 1\n"          // d
       << "VARIABLE number_unsafe IN 0 TO dim - 1\n"      // ceil(log2 d)
       << "VARIABLE number_faulty IN 0 TO dim - 1\n"      // ceil(log2 d)
       << "VARIABLE state IN fault_states INIT safe\n"    // 3
       << "VARIABLE cube_dim IN dim TO dim\n";            // constant, 0 bits
  }
  return os.str();
}

/// 512 entries: five direct binary signals x four mask zero-test atoms.
const char* kRouteCDecideDir = R"(
-- decides which outputs can be taken (set 2 of the decision)
ON decide_dir
  IF up_mask <> 0 AND blocked = 0 AND misrouted_in = 0 AND dest_unsafe = 0
    THEN !dirset(up_mask, 0);
  IF up_mask <> 0 AND blocked = 0 AND misrouted_in = 1
    THEN !dirset(up_mask, 0);
  IF up_mask = 0 AND down_mask <> 0 AND blocked = 0 AND dest_unsafe = 0
    THEN !dirset(down_mask, 1);
  IF up_mask = 0 AND down_mask <> 0 AND blocked = 0 AND dest_unsafe = 1
    THEN !dirset(down_mask, 1);
  IF blocked = 1 AND esc_ok = 1 AND nb_unsafe = 0
    THEN !dirset(maxmask, 2);
  IF blocked = 1 AND esc_ok = 1 AND nb_unsafe = 1
    THEN !dirset(maxmask, 2);
  IF blocked = 1 AND esc_ok = 0 AND up_mask <> 0
    THEN !dirset(up_mask, 3);
  IF blocked = 1 AND esc_ok = 0 AND down_mask <> 0
    THEN !dirset(down_mask, 3);
  IF up_mask = 0 AND down_mask = 0 THEN !dirset(0, 4);
END decide_dir;
)";

/// 4d entries: phase (4 symbols) x direction (d, direct).
const char* kRouteCDecideVc = R"(
-- decide output and virtual channel, update adaptivity
ON decide_vc(dir IN dim) RETURNS 0 TO maxacmd
  IF phase = asc AND dir < dim
    THEN RETURN(0),
         queue_len(dir) <- min(queue_len(dir) + 1, 511);
  IF phase = desc AND dir < dim
    THEN RETURN(1),
         queue_len(dir) <- min(queue_len(dir) + 1, 511);
  IF phase = mis AND dir < dim THEN RETURN(3), tried_up(dir) <- 1;
  IF phase = esc AND dir < dim THEN RETURN(2), tried_down(dir) <- 1;
END decide_vc;
)";

/// 200 entries: new_state (5, direct) x state (5, direct) x three counter
/// comparison atoms — the paper reports 180 x 7 for its encoding.
const char* kRouteCUpdateState = R"(
-- state update requires counting of unsafe or faulty neighbours (Figure 4)
ON update_state(dir IN dim)
  IF new_state(dir) IN {faulty, lfault} AND number_faulty = 0
    THEN neighb_state(dir) <- new_state(dir),
         number_faulty <- min(number_faulty + 1, dim - 1),
         number_unsafe <- min(number_unsafe + 1, dim - 1);
  IF new_state(dir) IN {sunsafe, ounsafe} AND state = safe
     AND number_unsafe = 2
    THEN state <- ounsafe,
         number_unsafe <- min(number_unsafe + 1, dim - 1),
         FORALL i IN dim: !send_newmessage(i, ounsafe),
         neighb_state(dir) <- new_state(dir);
  IF new_state(dir) IN {sunsafe, ounsafe} AND state = safe
     AND NOT (number_unsafe = 2) AND number_faulty = 0
    THEN neighb_state(dir) <- new_state(dir),
         number_unsafe <- min(number_unsafe + 1, dim - 1);
  IF new_state(dir) = faulty AND number_faulty = dim - 1
    THEN state <- sunsafe, link_fault(dir) <- 1,
         FORALL i IN dim: !send_newmessage(i, sunsafe);
  IF new_state(dir) = safe AND state = ounsafe AND number_unsafe = 2
    THEN state <- safe, neighb_state(dir) <- safe,
         FORALL i IN dim: !send_newmessage(i, safe);
END update_state;
)";

const char* kRouteCAdaptivity = R"(
-- create adaptivity criterion (method not specified in [ChW96]; any rule
-- base fits here — this one selects the least-loaded usable dimension)
ON adaptivity RETURNS dim
  IF EXISTS i IN dim: (FORALL j IN dim: queue_len(i) <= queue_len(j))
    THEN RETURN(0);
END adaptivity;
)";

/// Host-model declarations closing both variants: decide_dir's command
/// classes 0/1 (ascending, descending) take VCs 0/1.
const char* kRouteCHostModel = R"(
-- host model
CONSTANT vcs = 2
)";

}  // namespace

std::string route_c_program_source(int d, int a) {
  std::string src = route_c_decls(d, a, /*ft=*/true, "route_c");
  src += kRouteCDecideDir;
  src += kRouteCDecideVc;
  src += kRouteCUpdateState;
  src += kRouteCAdaptivity;
  src += kRouteCHostModel;
  return src;
}

std::string route_c_nft_program_source(int d, int a) {
  // The stripped variant folds the (trivial) two-channel choice into
  // decide_dir — Table 2 marks only decide_dir and adaptivity as needed
  // without fault tolerance.
  std::string src = route_c_decls(d, a, /*ft=*/false, "route_c_nft");
  src += kRouteCDecideDir;
  src += kRouteCAdaptivity;
  src += kRouteCHostModel;
  return src;
}

const std::map<std::string, std::string>& route_c_meanings() {
  static const std::map<std::string, std::string> meanings = {
      {"decide_dir", "decides which outputs can be taken"},
      {"decide_vc", "decide output and virt. channel, update adaptivity"},
      {"update_state", "state update: counting unsafe/faulty neighbors"},
      {"adaptivity", "create adaptivity criterion (not specified)"},
  };
  return meanings;
}

}  // namespace flexrouter::rulebases
