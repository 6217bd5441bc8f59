#include "widget.hh"

Widget::Widget(const Widget &other)
    : slots(other.slots), cursor(other.cursor), budget(other.budget),
      ceiling(other.ceiling)
{
}

std::uint64_t
Widget::stateHash() const
{
    std::uint64_t h = cursor + budget + spare + ceiling;
    for (std::uint64_t slot : slots)
        h = h * 31 + slot;
    return h;
}
