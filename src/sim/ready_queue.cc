#include "sim/ready_queue.hh"

#include "util/logging.hh"

namespace dysta {

void
IndexedMinHeap::clear()
{
    heap.clear();
    pos.clear();
}

void
IndexedMinHeap::place(size_t i, Item item)
{
    heap[i] = item;
    // A leaked tenant whose slot was since reused has no position
    // left to maintain.
    if (size_t* at = pos.find(*item.req))
        *at = i;
}

size_t
IndexedMinHeap::siftUp(size_t i)
{
    Item moving = heap[i];
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!(moving.key < heap[parent].key))
            break;
        place(i, heap[parent]);
        i = parent;
    }
    place(i, moving);
    return i;
}

size_t
IndexedMinHeap::siftDown(size_t i)
{
    Item moving = heap[i];
    size_t n = heap.size();
    while (true) {
        size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child + 1].key < heap[child].key)
            ++child;
        if (!(heap[child].key < moving.key))
            break;
        place(i, heap[child]);
        i = child;
    }
    place(i, moving);
    return i;
}

void
IndexedMinHeap::push(const Request* req, ReadyKey key)
{
    panicIf(req == nullptr, "IndexedMinHeap: null request");
    panicIf(contains(*req), "IndexedMinHeap: duplicate request id");
    heap.push_back({req, key});
    pos.emplace(*req, heap.size() - 1);
    siftUp(heap.size() - 1);
}

void
IndexedMinHeap::erase(const Request& req)
{
    const size_t* at = pos.find(req);
    panicIf(at == nullptr, "IndexedMinHeap: erase of absent request");
    size_t i = *at;
    pos.erase(req);
    Item last = heap.back();
    heap.pop_back();
    if (i == heap.size())
        return;
    place(i, last);
    // The displaced item may need to move either way.
    siftDown(siftUp(i));
}

void
IndexedMinHeap::updatePrimary(const Request& req, double primary)
{
    const size_t* at = pos.find(req);
    panicIf(at == nullptr, "IndexedMinHeap: update of absent request");
    size_t i = *at;
    heap[i].key.primary = primary;
    siftDown(siftUp(i));
}

const Request*
IndexedMinHeap::top() const
{
    panicIf(heap.empty(), "IndexedMinHeap: top of empty heap");
    return heap.front().req;
}

const ReadyKey&
IndexedMinHeap::topKey() const
{
    panicIf(heap.empty(), "IndexedMinHeap: topKey of empty heap");
    return heap.front().key;
}

} // namespace dysta
