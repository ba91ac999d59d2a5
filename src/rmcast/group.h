// Static multicast group membership and logical receiver structures.
//
// The paper (§3) restricts itself to static groups: membership is fixed
// before communication starts and every node knows the full roster. A
// GroupMembership names the multicast data address, the sender's control
// endpoint and one control endpoint per receiver; a receiver's index in
// that roster is its node id, which drives both the ring token rotation
// (receiver i acknowledges packets i, i+N, i+2N, ...) and the flat-tree
// chain layout (receivers [j*H, (j+1)*H) form chain j; position 0 is the
// chain head that talks to the sender).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/ipv4.h"

namespace rmc::rmcast {

struct GroupMembership {
  net::Endpoint group;           // multicast address data packets go to
  net::Endpoint sender_control;  // unicast endpoint of the sender
  std::vector<net::Endpoint> receiver_control;  // index = node id

  std::size_t n_receivers() const { return receiver_control.size(); }

  // Returns an error message, or empty if the membership is well-formed.
  std::string validate() const;
};

// A GroupMembership that passed validate(), shared read-only by a group's
// sender and every receiver: one roster per group, instead of one copy
// and one O(N) validation per endpoint. The constructor is the only way
// to make one and it always validates, so an endpoint handed a
// SharedMembership can trust the roster without checking it again.
class SharedMembership {
 public:
  // Validates `membership`; panics with validate()'s message on failure.
  explicit SharedMembership(GroupMembership membership);

  const GroupMembership& operator*() const { return *roster_; }
  const GroupMembership* operator->() const { return roster_.get(); }

 private:
  std::shared_ptr<const GroupMembership> roster_;
};

// Registry of concurrently active groups — the multi-tenant guard rail.
// Sessions sharing one fabric register their (already validated)
// membership here before opening sockets. add() rejects data-address
// collisions: two concurrent groups sharing a multicast data endpoint
// would deliver one tenant's DATA stream into another tenant's reassembly
// buffers (every receiver binds the group port and joins the group
// address, so the collision is silent on the wire).
class GroupDirectory {
 public:
  // Returns an error message and registers nothing on failure; empty on
  // success. `id` is any caller-unique key (tenant index works).
  std::string add(std::uint64_t id, const SharedMembership& membership);
  void remove(std::uint64_t id);

  std::size_t size() const { return groups_.size(); }

 private:
  std::vector<std::pair<std::uint64_t, SharedMembership>> groups_;
};

// A receiver's place in a flat tree of height `height` over `n` receivers
// (paper Figure 5). When `height` does not divide `n`, the last chain is
// short.
struct TreePosition {
  std::size_t chain = 0;
  std::size_t depth = 0;  // 0 = chain head
  bool is_head = false;
  bool is_tail = false;
  // Valid when !is_head / !is_tail respectively.
  std::size_t predecessor = 0;
  std::size_t successor = 0;
};

TreePosition tree_position(std::size_t id, std::size_t n, std::size_t height);

// Node ids of the chain heads — the only receivers that send ACKs to the
// sender under the tree protocol.
std::vector<std::size_t> tree_chain_heads(std::size_t n, std::size_t height);

std::size_t tree_chain_count(std::size_t n, std::size_t height);

// A receiver's links in a general aggregation tree: whom it reports to
// (the sender when !has_parent) and whose reports it aggregates. The flat
// tree (paper Figure 5) yields chains; the binary tree (paper Figure 4)
// is the structure of the pre-existing tree protocols the paper's flat
// tree argues against — kept here as a comparison baseline.
struct TreeLinks {
  bool has_parent = false;
  std::size_t parent = 0;
  std::vector<std::size_t> children;
};

TreeLinks flat_tree_links(std::size_t id, std::size_t n, std::size_t height);

// Binary heap layout rooted at receiver 0: children of i are 2i+1, 2i+2.
TreeLinks binary_tree_links(std::size_t id, std::size_t n);

// Live-set variants, used after eviction removes receivers from the
// structure. `live` is the sorted list of surviving node ids; the layout
// is computed over *ranks* in that list and mapped back to node ids, so
// evicting a node splices the chain around it: its successor is promoted
// into its position (a dead head's successor becomes the new head and
// reports to the sender) and its predecessor re-points at the successor.
// When the live set shrinks below `height`, the chain height clamps to the
// live count. Every survivor computes the same layout from the same evict
// notices, so no agreement protocol is needed.
std::size_t live_rank(const std::vector<std::size_t>& live, std::size_t id);

std::vector<std::size_t> tree_chain_heads_live(const std::vector<std::size_t>& live,
                                               std::size_t height);

TreeLinks flat_tree_links_live(std::size_t id, const std::vector<std::size_t>& live,
                               std::size_t height);

TreeLinks binary_tree_links_live(std::size_t id, const std::vector<std::size_t>& live);

}  // namespace rmc::rmcast
